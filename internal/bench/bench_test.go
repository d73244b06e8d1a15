package bench

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/oracle"
	"passcloud/internal/sim"
	"passcloud/internal/workload"
)

// The experiment drivers run live-scaled simulations; these tests exercise
// them at higher-than-production scales so the suite stays fast while still
// verifying the paper-shaped relationships (orderings, not absolute
// values). Ordering margins in the experiments are ≥25%, comfortably above
// the timer noise the higher scale introduces.
//
// Everything live-scaled or large-N is gated behind testing.Short():
// `go test -short` runs only the manual-clock (instant) tests, keeping the
// package under a second; the full suite takes ~30s.

const testScale = 600

func TestTable2Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("live-scaled experiment")
	}
	rows, err := Table2(7, testScale, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]Table2Row{}
	for _, r := range rows {
		by[r.Service] = r
	}
	// The paper's Table 2 ordering: SQS ≪ S3 < SimpleDB.
	if !(by["SQS"].Elapsed < by["S3"].Elapsed && by["S3"].Elapsed < by["SimpleDB"].Elapsed) {
		t.Fatalf("service ordering wrong: %+v", rows)
	}
	if by["SQS"].Elapsed*4 > by["S3"].Elapsed {
		t.Fatalf("SQS should be several times faster than S3: %v vs %v",
			by["SQS"].Elapsed, by["S3"].Elapsed)
	}
}

func TestMicroOverheadOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("live-scaled experiment")
	}
	ec2, uml, err := Fig3(7, testScale)
	if err != nil {
		t.Fatal(err)
	}
	get := func(rs []MicroResult, name string) MicroResult {
		for _, r := range rs {
			if r.Protocol == name {
				return r
			}
		}
		t.Fatalf("missing %s", name)
		return MicroResult{}
	}
	// Figure 3: S3fs < P3 < P1 < P2.
	s3fs, p1, p2, p3 := get(ec2, "S3fs"), get(ec2, "P1"), get(ec2, "P2"), get(ec2, "P3")
	if !(s3fs.Elapsed < p3.Elapsed && p3.Elapsed < p1.Elapsed && p1.Elapsed < p2.Elapsed) {
		t.Fatalf("micro ordering wrong: S3fs=%v P1=%v P2=%v P3=%v",
			s3fs.Elapsed, p1.Elapsed, p2.Elapsed, p3.Elapsed)
	}
	// Table 3: data overhead under 1%, op overheads large, P1 worst.
	rows := Table3(ec2)
	for _, r := range rows {
		if r.Protocol == "S3fs" {
			continue
		}
		if r.DataPct < 0 || r.DataPct > 1.0 {
			t.Errorf("%s data overhead %.2f%%, want <1%%", r.Protocol, r.DataPct)
		}
		if r.OpsPct < 50 {
			t.Errorf("%s op overhead %.1f%%, want substantial", r.Protocol, r.OpsPct)
		}
	}
	// UML runs preserve the ordering.
	us3fs, up3 := get(uml, "S3fs"), get(uml, "P3")
	if us3fs.Elapsed >= up3.Elapsed {
		t.Fatal("UML ordering collapsed")
	}
}

// TestUsageFinalWhenMeasureReturns pins "stop the daemons, then Settle": the
// bill a cost cell reads must not still be moving under a group commit that
// outlived the measured upload.
func TestUsageFinalWhenMeasureReturns(t *testing.T) {
	if testing.Short() {
		t.Skip("live-scaled experiment")
	}
	run, err := captureBlast(7)
	if err != nil {
		t.Fatal(err)
	}
	s := Setup{Protocol: "P3", Site: sim.SiteEC2, Era: sim.EraSept09, Seed: 7, Scale: testScale}
	_, env, err := measure(s, run.upload) // ends with a window of commits in flight
	if err != nil {
		t.Fatal(err)
	}
	atReturn := env.Meter().Usage()
	time.Sleep(50 * time.Millisecond) // 30 simulated seconds: several polls and any group commit
	if idle := env.Meter().Usage(); !reflect.DeepEqual(atReturn, idle) {
		t.Fatalf("usage moved after measure returned: %d ops at return, %d once idle", atReturn.TotalOps, idle.TotalOps)
	}
}

func TestRunWorkloadSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("live-scaled experiment")
	}
	w := workload.Nightly(sim.NewRand(7))
	var base Result
	for _, f := range core.Factories() {
		r, err := RunWorkload(w, Setup{Protocol: f.Name, Site: sim.SiteEC2, Era: sim.EraSept09, UML: true, Seed: 7, Scale: testScale})
		if err != nil {
			t.Fatal(err)
		}
		if f.Name == "S3fs" {
			base = r
		}
		if r.MountOps != 240 {
			t.Fatalf("%s: mount ops = %d, want 240", f.Name, r.MountOps)
		}
		gb := float64(r.Usage.BytesIn) / (1 << 30)
		if gb < 9 || gb > 12 {
			t.Fatalf("%s: uploaded %.1f GB, want ≈10.2", f.Name, gb)
		}
		// Nightly overheads are small (flat provenance tree).
		if ov := Overhead(r, base); f.Name != "S3fs" && (ov < -20 || ov > 35) {
			t.Errorf("%s nightly overhead %.1f%%, want small", f.Name, ov)
		}
		if f.Name == "S3fs" && r.CostUSD < 0.5 {
			t.Errorf("nightly baseline cost $%.2f, want ≈$1", r.CostUSD)
		}
	}
}

func TestChunkSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("live-scaled experiment")
	}
	points, err := ChunkSweep(7, testScale, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 2 {
		t.Fatal("no sweep points")
	}
	// One client and no daemon: the message and request counts are exact, and
	// they are why smaller chunks are slower (each request pays its latency).
	// Elapsed time on the scaled clock is reported, not gated.
	for i := 1; i < len(points); i++ {
		prev, p := points[i-1], points[i]
		if p.Messages >= prev.Messages || p.Requests >= prev.Requests {
			t.Fatalf("%dB chunks should need fewer messages and send requests than %dB: %+v", p.ChunkBytes, prev.ChunkBytes, points)
		}
	}
}

func TestBatchSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("live-scaled experiment")
	}
	points, err := BatchSweep(7, testScale, []int{1, 25})
	if err != nil {
		t.Fatal(err)
	}
	// The call count is exact and is what the per-call indexing cost
	// multiplies; elapsed time on the scaled clock is reported, not gated.
	if points[0].Calls <= points[1].Calls {
		t.Fatalf("batch=1 should issue more calls than batch=25: %+v", points)
	}
}

func TestConsistencySweepShape(t *testing.T) {
	points, err := ConsistencySweep(7, 30)
	if err != nil {
		t.Fatal(err)
	}
	var eventual, strict ConsistencyPoint
	for _, p := range points {
		if p.Mode == sim.Strict {
			strict = p
		} else {
			eventual = p
		}
	}
	if strict.TransientFails != 0 {
		t.Fatalf("strict mode had %d transient failures", strict.TransientFails)
	}
	if eventual.TransientFails == 0 {
		t.Fatal("eventual mode showed no transient detection failures; staleness engine off?")
	}
}

func TestMetadataPersistenceDemo(t *testing.T) {
	violated, err := MetadataPersistenceDemo(7)
	if err != nil {
		t.Fatal(err)
	}
	if !violated {
		t.Fatal("provenance-as-metadata should lose provenance on delete")
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	rows, err := oracle.Table1(7)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	RenderTable1(&sb, rows)
	out := sb.String()
	for _, want := range []string{"Data-Coupling", "P3", "yes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
