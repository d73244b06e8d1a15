// Repository-level benchmarks: one per table and figure of the paper's
// evaluation, the §5.1 ablations, and four harnesses that came after — the
// indexed SELECT engine, the query API cache, coherent warm-cache reads and
// tenant isolation — each of which records a BENCH_*.json snapshot
// (internal/fabric's package comment is the system map). Each benchmark runs
// the corresponding experiment from internal/bench and reports the headline
// simulated measurement as a custom metric, so `go test -bench=.` prints
// the paper-shaped numbers. cmd/provbench renders the full tables.
//
// BENCH_history.jsonl also holds the last snapshots of harnesses that have
// no benchmark here: the serial commit path, sharded write, reshard, chaos,
// translog and autoscale.
//
// The heavyweight experiments run reduced configurations here (the full
// sweep lives behind cmd/provbench); each iteration is one whole experiment.
package passcloud

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"passcloud/internal/bench"
	"passcloud/internal/core"
	"passcloud/internal/sim"
	"passcloud/internal/workload"
)

const benchSeed = 42

// writeSnapshot records one harness run: doc, indented, replaces the
// BENCH_*.json snapshot named file at the repository root, and the same
// document — with the commit it was measured at and the run's seed — becomes
// one more line of BENCH_history.jsonl, the trajectory the snapshots are
// points of.
func writeSnapshot(b *testing.B, file string, seed int64, doc map[string]any) {
	b.Helper()
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(file, out, 0o644); err != nil {
		b.Fatal(err)
	}
	commit := "unknown"
	if head, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(head))
	}
	line, err := json.Marshal(map[string]any{"commit": commit, "seed": seed, "metrics": doc})
	if err != nil {
		b.Fatal(err)
	}
	history, err := os.OpenFile("BENCH_history.jsonl", os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := history.Write(append(line, '\n')); err != nil {
		b.Fatal(err)
	}
	if err := history.Close(); err != nil {
		b.Fatal(err)
	}
}

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

// BenchmarkBigQueryIndexed runs the large-N (100k-item) Table-5-style query
// set through the indexed SELECT engine and through the seed's full-scan
// path, reports the simulated times, and records the comparison in
// BENCH_indexed_select.json at the repository root.
func BenchmarkBigQueryIndexed(b *testing.B) {
	const (
		items  = 100_000
		chains = 64
		depth  = 12
	)
	for i := 0; i < b.N; i++ {
		indexed, err := bench.BigQuery(21, items, chains, depth, false)
		if err != nil {
			b.Fatal(err)
		}
		scan, err := bench.BigQuery(21, items, chains, depth, true)
		if err != nil {
			b.Fatal(err)
		}
		type speedup struct {
			Sim  float64 `json:"sim"`
			Wall float64 `json:"wall"`
		}
		speedups := make(map[string]speedup, len(indexed.Cells)+1)
		var totIdx, totScan speedup
		// The ≥10x acceptance gate lives in TestBigQueryIndexSpeedup; the
		// benchmark only measures and records, so a regression still gets
		// written to the JSON instead of aborting the run.
		for _, ci := range indexed.Cells {
			cs := scan.Cell(ci.Query)
			speedups[ci.Query] = speedup{
				Sim:  cs.SimSeconds / ci.SimSeconds,
				Wall: cs.WallSeconds / ci.WallSeconds,
			}
			totIdx.Sim += ci.SimSeconds
			totIdx.Wall += ci.WallSeconds
			totScan.Sim += cs.SimSeconds
			totScan.Wall += cs.WallSeconds
			b.ReportMetric(ci.SimSeconds, "sim-s-idx-"+ci.Query)
			b.ReportMetric(cs.SimSeconds, "sim-s-scan-"+ci.Query)
		}
		speedups["total"] = speedup{Sim: totScan.Sim / totIdx.Sim, Wall: totScan.Wall / totIdx.Wall}
		writeSnapshot(b, "BENCH_indexed_select.json", 21, map[string]any{
			"benchmark": "BenchmarkBigQueryIndexed",
			"command":   "go test -run=- -bench=BenchmarkBigQueryIndexed -benchtime=1x",
			"indexed":   indexed,
			"scan":      scan,
			"speedup":   speedups,
		})
	}
}

// BenchmarkQueryAPI runs the repeated-traversal read workload (Q4-shaped
// BFS + Q2-shaped versions lookup + Q3-shaped indexed find, repeated over a
// settled ≥30k-item corpus) through the composable query API with the
// versioned read-through cache off and on, reports the headline numbers,
// and records the comparison in BENCH_query_api.json at the repository
// root.
func BenchmarkQueryAPI(b *testing.B) {
	const (
		items   = 30_000
		chains  = 48
		depth   = 10
		repeats = 6
	)
	for i := 0; i < b.N; i++ {
		uncached, err := bench.QueryAPI(17, items, chains, depth, repeats, false)
		if err != nil {
			b.Fatal(err)
		}
		cached, err := bench.QueryAPI(17, items, chains, depth, repeats, true)
		if err != nil {
			b.Fatal(err)
		}
		// The ≥2x acceptance gate lives in TestQueryCacheSpeedup; the
		// benchmark only measures and records, so a regression still gets
		// written to the JSON instead of aborting the run. Identical results
		// are non-negotiable even here.
		if uncached.Digest != cached.Digest {
			b.Fatalf("cached results diverged: %s vs %s", uncached.Digest, cached.Digest)
		}
		b.ReportMetric(uncached.SimSeconds, "sim-s-uncached")
		b.ReportMetric(cached.SimSeconds, "sim-s-cached")
		b.ReportMetric(uncached.SimSeconds/cached.SimSeconds, "sim-speedup-x")
		b.ReportMetric(float64(uncached.Selects)/float64(cached.Selects), "select-reduction-x")
		writeSnapshot(b, "BENCH_query_api.json", 17, map[string]any{
			"benchmark": "BenchmarkQueryAPI",
			"command":   "go test -run=- -bench=BenchmarkQueryAPI -benchtime=1x",
			"uncached":  uncached,
			"cached":    cached,
			"speedup": map[string]float64{
				"sim":       uncached.SimSeconds / cached.SimSeconds,
				"wall":      uncached.WallSeconds / cached.WallSeconds,
				"selects":   float64(uncached.Selects) / float64(cached.Selects),
				"total_ops": float64(uncached.TotalOps) / float64(cached.TotalOps),
			},
			"results_identical": uncached.Digest == cached.Digest,
		})
	}
}

// BenchmarkCoherentReads runs the continuous-ingest commit+query workload
// with the four reader strategies (uncached, commit-bus-subscribed warm
// cache, flush-per-round, stale negative control) plus the filter-pushdown
// comparison over the final corpus, reports the headline numbers, and
// records everything in BENCH_coherent_reads.json at the repository root.
func BenchmarkCoherentReads(b *testing.B) {
	cfg := bench.CoherentReadsConfig{
		Seed: 23, Rounds: 10, TxnsPerRound: 24, Depth: 6, Workers: 8, DBShards: 4,
	}
	for i := 0; i < b.N; i++ {
		run, err := bench.CoherentReads(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// The ≥2x acceptance gate lives in TestCoherentReadsGate; the
		// benchmark only measures and records, so a regression still gets
		// written to the JSON instead of aborting the run. Coherent results
		// are non-negotiable even here.
		base, sub := run.Modes["uncached"], run.Modes["subscribed"]
		if sub.Digest != base.Digest {
			b.Fatalf("subscribed cache diverged: %s vs %s", sub.Digest, base.Digest)
		}
		for _, pc := range run.Pushdown {
			if !pc.Identical {
				b.Fatalf("pushdown case %s changed the result stream", pc.Name)
			}
		}
		b.ReportMetric(base.SimSeconds, "sim-s-uncached")
		b.ReportMetric(sub.SimSeconds, "sim-s-subscribed")
		b.ReportMetric(run.CostRatio("subscribed"), "read-cost-ratio-x")
		b.ReportMetric(float64(sub.Invalidations), "invalidations")
		writeSnapshot(b, "BENCH_coherent_reads.json", cfg.Seed, map[string]any{
			"benchmark": "BenchmarkCoherentReads",
			"command":   "go test -run=- -bench=BenchmarkCoherentReads -benchtime=1x",
			"run":       run,
			"read_cost_ratio": map[string]float64{
				"subscribed": run.CostRatio("subscribed"),
				"flush":      run.CostRatio("flush"),
				"stale":      run.CostRatio("stale"),
			},
			"results_identical": map[string]bool{
				"subscribed": sub.Digest == base.Digest,
				"flush":      run.Modes["flush"].Digest == base.Digest,
				"stale":      run.Modes["stale"].Digest == base.Digest, // expected false
			},
		})
	}
}

// BenchmarkTenantIsolation runs the multi-tenant front-door workload three
// ways — the compliant tenant alone, the compliant tenant sharing the
// fabric with an abusive tenant's retry storm behind admission control, and
// the same storm with isolation disabled (the negative control) — reports
// the compliant tenant's tail latency and goodput, and records the
// comparison (including the zero-lost audit and the solo-vs-shared digest)
// in BENCH_tenant_isolation.json at the repository root.
func BenchmarkTenantIsolation(b *testing.B) {
	base := bench.TenantIsolationConfig{
		Seed:          33,
		Txns:          120,
		BundlesPerTxn: 5, // 600 events
		Workers:       4,
		ClientConns:   16,
		OfferedRate:   30,
		K:             2,
		FaultProb:     0.05,
		ApplyProb:     0.5,
		DupProb:       0.02,
		Isolation:     true,
	}
	for i := 0; i < b.N; i++ {
		soloCfg, sharedCfg, controlCfg := base, base, base
		sharedCfg.Abuser = true
		controlCfg.Abuser, controlCfg.Isolation = true, false

		solo, err := bench.TenantIsolation(soloCfg)
		if err != nil {
			b.Fatal(err)
		}
		shared, err := bench.TenantIsolation(sharedCfg)
		if err != nil {
			b.Fatal(err)
		}
		control, err := bench.TenantIsolation(controlCfg)
		if err != nil {
			b.Fatal(err)
		}
		// The latency and goodput acceptance gates live in
		// TestTenantIsolationGate; the benchmark only measures and records —
		// but lost, duplicated or diverged provenance under the storm is
		// non-negotiable even here.
		if shared.ItemCount != shared.Events+shared.AbuserItems || shared.Misplaced != 0 || shared.Duplicates != 0 {
			b.Fatalf("storm mangled provenance: items=%d/%d misplaced=%d duplicates=%d",
				shared.ItemCount, shared.Events+shared.AbuserItems, shared.Misplaced, shared.Duplicates)
		}
		if shared.ProvDigest != solo.ProvDigest {
			b.Fatalf("compliant provenance diverged under the storm: %s vs %s",
				shared.ProvDigest, solo.ProvDigest)
		}
		b.ReportMetric(solo.CommitP99Ms, "p99-ms-solo")
		b.ReportMetric(shared.CommitP99Ms, "p99-ms-shared")
		b.ReportMetric(control.CommitP99Ms, "p99-ms-no-isolation")
		b.ReportMetric(shared.Goodput, "goodput-ev-per-s-shared")
		b.ReportMetric(shared.CommitP99Ms/solo.CommitP99Ms, "p99-ratio-shared")
		b.ReportMetric(control.CommitP99Ms/solo.CommitP99Ms, "p99-ratio-no-isolation")
		writeSnapshot(b, "BENCH_tenant_isolation.json", base.Seed, map[string]any{
			"benchmark": "BenchmarkTenantIsolation",
			"command":   "go test -run=- -bench=BenchmarkTenantIsolation -benchtime=1x",
			"runs": map[string]bench.TenantIsolationRun{
				"solo":         solo,
				"shared":       shared,
				"no_isolation": control,
			},
			"shared_p99_ratio":           shared.CommitP99Ms / solo.CommitP99Ms,
			"shared_goodput_ratio":       shared.Goodput / solo.Goodput,
			"no_isolation_p99_ratio":     control.CommitP99Ms / solo.CommitP99Ms,
			"no_isolation_goodput_ratio": control.Goodput / solo.Goodput,
			"zero_lost_or_duplicated":    shared.ItemCount == shared.Events+shared.AbuserItems && shared.Misplaced == 0 && shared.Duplicates == 0,
			"provenance_identical":       shared.ProvDigest == solo.ProvDigest,
			"control_violates_bound":     control.CommitP99Ms > 2*solo.CommitP99Ms || control.Goodput < 0.8*solo.Goodput,
		})
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
