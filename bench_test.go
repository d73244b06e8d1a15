// Repository-level benchmarks: one per table and figure of the paper's
// evaluation, and the §5.1 ablations. Each benchmark runs the corresponding
// experiment from internal/bench and reports the headline simulated
// measurement as a custom metric, so `go test -bench=.` prints the
// paper-shaped numbers. cmd/provbench renders the full tables.
//
// Nothing here writes a file. BENCH_history.jsonl holds the last snapshots
// of the post-paper harnesses: the serial commit path, the indexed SELECT
// engine, the query API cache, coherent reads, tenant isolation, sharded
// write, reshard, chaos, translog and autoscale.
//
// The heavyweight experiments run reduced configurations here (the full
// sweep lives behind cmd/provbench); each iteration is one whole experiment.
package passcloud

import (
	"fmt"
	"testing"

	"passcloud/internal/bench"
	"passcloud/internal/core"
	"passcloud/internal/sim"
	"passcloud/internal/workload"
)

const benchSeed = 42

// BenchmarkTable1Properties probes the property matrix (Table 1).
func BenchmarkTable1Properties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		// The probe's value is the matrix itself; spot-check the headline
		// claim (P3 satisfies everything, P1 lacks coupling+query).
		for _, r := range rows {
			if r.Protocol == "P3" && !(r.DataCoupling && r.CausalOrdering && r.EfficientQuery) {
				b.Fatalf("P3 properties regressed: %+v", r)
			}
		}
	}
}

// BenchmarkTable2ServiceUpload uploads 50MB of provenance to each service
// at its tuned connection count (Table 2).
func BenchmarkTable2ServiceUpload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table2(benchSeed, 0, 0, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Elapsed.Seconds(), "sim-s-"+r.Service)
		}
	}
}

// BenchmarkTable3Overheads measures the data/operation overheads of the
// protocols on the Blast replay (Table 3; same runs as Figure 3).
func BenchmarkTable3Overheads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ec2, _, err := bench.Fig3(benchSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range bench.Table3(ec2) {
			if row.Protocol != "S3fs" {
				b.ReportMetric(row.OpsPct, "ops-ovh%-"+row.Protocol)
			}
		}
	}
}

// BenchmarkTable4Cost prices one representative workload per protocol
// (Table 4 column; cmd/provbench prices all three).
func BenchmarkTable4Cost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := workload.Challenge(sim.NewRand(benchSeed))
		for _, f := range core.Factories() {
			r, err := bench.RunWorkload(w, bench.Setup{
				Protocol: f.Name, Site: sim.SiteEC2, Era: sim.EraSept09, UML: true, Seed: benchSeed,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.CostUSD, "usd-"+f.Name)
		}
	}
}

// BenchmarkTable5Queries runs Q1..Q4 on both backends (Table 5).
func BenchmarkTable5Queries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table5(benchSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Sequential.Seconds(), fmt.Sprintf("sim-s-%s-%s", r.Query, r.Backend))
		}
	}
}

// BenchmarkFig3Micro runs the protocol microbenchmark (Figure 3).
func BenchmarkFig3Micro(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ec2, uml, err := bench.Fig3(benchSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range ec2 {
			b.ReportMetric(r.Elapsed.Seconds(), "sim-s-"+r.Protocol)
		}
		_ = uml
	}
}

// BenchmarkFig4Workloads runs a reduced Figure-4 cell set (the challenge
// workload, EC2 site, September era, all four configurations). The full
// 48-cell sweep is `provbench -run fig4`.
func BenchmarkFig4Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := workload.Challenge(sim.NewRand(benchSeed))
		var base bench.Result
		for _, f := range core.Factories() {
			r, err := bench.RunWorkload(w, bench.Setup{
				Protocol: f.Name, Site: sim.SiteEC2, Era: sim.EraSept09, UML: true, Seed: benchSeed,
			})
			if err != nil {
				b.Fatal(err)
			}
			if f.Name == "S3fs" {
				base = r
			}
			b.ReportMetric(r.Elapsed.Seconds(), "sim-s-"+f.Name)
			if f.Name != "S3fs" {
				b.ReportMetric(bench.Overhead(r, base), "ovh%-"+f.Name)
			}
		}
	}
}

// BenchmarkAblationConnections sweeps connection counts per service (§5.1:
// S3/SQS keep scaling to 150, SimpleDB peaks around 40).
func BenchmarkAblationConnections(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := bench.ConnSweep(benchSeed, 0, []int{40, 150})
		if err != nil {
			b.Fatal(err)
		}
		tp := make(map[string]map[int]float64)
		for _, p := range points {
			if tp[p.Service] == nil {
				tp[p.Service] = make(map[int]float64)
			}
			tp[p.Service][p.Conns] = p.Throughput
		}
		// SimpleDB must NOT improve past 40 connections; S3 must.
		if tp["SimpleDB"][150] > tp["SimpleDB"][40]*1.15 {
			b.Fatalf("SimpleDB kept scaling past 40 conns: %+v", tp["SimpleDB"])
		}
		if tp["S3"][150] < tp["S3"][40]*1.5 {
			b.Fatalf("S3 stopped scaling before 150 conns: %+v", tp["S3"])
		}
		b.ReportMetric(tp["S3"][150], "MBps-S3-150")
		b.ReportMetric(tp["SimpleDB"][40], "MBps-SDB-40")
	}
}

// BenchmarkAblationChunkSize sweeps the P3 WAL chunk size (8KB is the
// service limit and the best point).
func BenchmarkAblationChunkSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := bench.ChunkSweep(benchSeed, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		if points[0].Elapsed < points[len(points)-1].Elapsed {
			b.Fatalf("smaller chunks should not beat 8KB: %+v", points)
		}
		for _, p := range points {
			b.ReportMetric(p.Elapsed.Seconds(), fmt.Sprintf("sim-s-%dB", p.ChunkBytes))
		}
	}
}

// BenchmarkAblationBatchSize sweeps BatchPutAttributes batch sizes (25 —
// the service maximum — amortizes the per-call indexing best).
func BenchmarkAblationBatchSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := bench.BatchSweep(benchSeed, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		if points[0].Elapsed < points[len(points)-1].Elapsed {
			b.Fatalf("batch=1 should not beat batch=25: %+v", points)
		}
		for _, p := range points {
			b.ReportMetric(p.Elapsed.Seconds(), fmt.Sprintf("sim-s-batch%d", p.BatchSize))
		}
	}
}

// BenchmarkAblationConsistency compares transient coupling-detection
// failures under eventual vs strict consistency.
func BenchmarkAblationConsistency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := bench.ConsistencySweep(benchSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Mode == sim.Strict && p.TransientFails != 0 {
				b.Fatalf("strict consistency produced transient failures: %+v", p)
			}
			b.ReportMetric(float64(p.TransientFails), "fails-"+p.Mode.String())
		}
	}
}
