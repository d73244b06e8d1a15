package workload

import (
	"testing"

	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/trace"
)

// depthOf computes the maximum dependency-path length (in nodes) of the
// provenance graph a workload produces, skipping prev-version edges (the
// paper counts derivation depth, not version history).
func depthOf(t *testing.T, w Workload) int {
	t.Helper()
	col := pass.New(sim.NewRand(1), nil)
	for _, ev := range w.Trace.Events {
		if err := col.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	g := col.Graph()
	memo := make(map[prov.Ref]int)
	var depth func(prov.Ref) int
	depth = func(r prov.Ref) int {
		if d, ok := memo[r]; ok {
			return d
		}
		memo[r] = 1 // cycle guard; graph is acyclic anyway
		best := 0
		n := g.Node(r)
		for _, rec := range n.Records {
			if rec.IsXref() && rec.Attr != prov.AttrPrevVer {
				if d := depth(rec.Xref); d > best {
					best = d
				}
			}
		}
		memo[r] = best + 1
		return best + 1
	}
	max := 0
	for _, n := range g.Nodes() {
		if d := depth(n.Ref); d > max {
			max = d
		}
	}
	if err := g.CheckAcyclic(); err != nil {
		t.Fatal(err)
	}
	return max
}

func TestNightlyShape(t *testing.T) {
	w := Nightly(sim.NewRand(1))
	s := w.Stats()
	if s.MountOps != 240 {
		t.Fatalf("mount ops = %d, want 240", s.MountOps)
	}
	gb := float64(s.MountBytes) / (1 << 30)
	if gb < 9.0 || gb > 11.5 {
		t.Fatalf("uploaded %.2f GB, want ≈10.2", gb)
	}
	if d := depthOf(t, w); d != 3 { // repo file -> cp -> archive
		t.Fatalf("depth = %d, want 3 (nearly flat)", d)
	}
	if s.FinalFiles != 30 {
		t.Fatalf("final files = %d, want 30", s.FinalFiles)
	}
}

func TestBlastShape(t *testing.T) {
	w := Blast(sim.NewRand(2))
	s := w.Stats()
	if s.MountOps < 10200 || s.MountOps > 11300 {
		t.Fatalf("mount ops = %d, want ≈10,773", s.MountOps)
	}
	if d := depthOf(t, w); d != 5 { // db -> blastall -> raw -> blastfmt -> report
		t.Fatalf("depth = %d, want 5", d)
	}
	mb := float64(s.FinalBytes) / (1 << 20)
	if mb < 600 || mb > 830 {
		t.Fatalf("final results = %.1f MB, want ≈713", mb)
	}
	if s.FinalFiles < 590 || s.FinalFiles > 640 {
		t.Fatalf("final files = %d, want ≈615", s.FinalFiles)
	}
	gb := float64(s.MountBytes) / (1 << 30)
	if gb < 2.7 || gb > 4.0 {
		t.Fatalf("uploaded %.2f GB, want ≈3.3", gb)
	}
}

func TestChallengeShape(t *testing.T) {
	w := Challenge(sim.NewRand(3))
	s := w.Stats()
	if s.MountOps < 5800 || s.MountOps > 6600 {
		t.Fatalf("mount ops = %d, want ≈6,179", s.MountOps)
	}
	if d := depthOf(t, w); d != 11 {
		t.Fatalf("depth = %d, want 11", d)
	}
	gb := float64(s.MountBytes) / (1 << 30)
	if gb < 2.2 || gb > 3.2 {
		t.Fatalf("uploaded %.2f GB, want ≈2.6", gb)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"nightly", "blast", "challenge"} {
		w, err := ByName(name, sim.NewRand(4))
		if err != nil || w.Name != name {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := ByName("nope", sim.NewRand(4)); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestWorkloadsDeterministicUnderSeed(t *testing.T) {
	a := Blast(sim.NewRand(9)).Stats()
	b := Blast(sim.NewRand(9)).Stats()
	if a != b {
		t.Fatalf("same seed, different stats: %+v vs %+v", a, b)
	}
}

func TestCompileProvenanceSizeAndShape(t *testing.T) {
	const target = 2 << 20 // keep the unit test fast; Table 2 uses 50MB
	bundles := CompileProvenance(sim.NewRand(5), target)
	total := len(prov.EncodeBundles(bundles))
	if total < target || total > target+8192 {
		t.Fatalf("encoded size = %d, want ≈%d (one unit of slack)", total, target)
	}
	// Topological order: xrefs only point backwards.
	seen := make(map[prov.Ref]bool)
	spills := 0
	for _, b := range bundles {
		for _, r := range b.Records {
			if r.IsXref() && !seen[r.Xref] {
				t.Fatalf("bundle %s references %s before it appears", b.Ref, r.Xref)
			}
			if !r.IsXref() && len(r.Value) > 1024 {
				spills++
			}
		}
		seen[b.Ref] = true
	}
	if spills == 0 {
		t.Fatal("no >1KB values; the spill path would go unexercised")
	}
	// Wire round trip of the whole stream.
	got, err := prov.DecodeBundles(prov.EncodeBundles(bundles))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(bundles) {
		t.Fatalf("round trip lost bundles: %d vs %d", len(got), len(bundles))
	}
}

// MountStats summarizes a workload the way the paper characterizes it.
type MountStats struct {
	MountOps   int
	MountBytes int64
	FinalFiles int
	FinalBytes int64
}

// Stats computes the mount-level characteristics of the workload.
func (w Workload) Stats() MountStats {
	var s MountStats
	finals := make(map[string]int64)
	for _, e := range w.Trace.Events {
		onMount := len(e.Path) >= 4 && e.Path[:4] == "mnt/"
		switch e.Kind {
		case trace.Read, trace.Write, trace.Close, trace.Flush, trace.Unlink, trace.MkPipe:
			if onMount {
				s.MountOps++
			}
		}
		if e.Kind == trace.Write && onMount {
			s.MountBytes += e.Bytes
			if len(e.Path) >= len(w.FinalPrefix) && e.Path[:len(w.FinalPrefix)] == w.FinalPrefix {
				finals[e.Path] += e.Bytes
			}
		}
	}
	s.FinalFiles = len(finals)
	for _, sz := range finals {
		s.FinalBytes += sz
	}
	return s
}
