package search

import (
	"testing"

	"passcloud/internal/core"
	"passcloud/internal/pasfs"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/query"
	"passcloud/internal/sim"
	"passcloud/internal/trace"
)

// archiveGraph models a user's archive: two related report files produced
// from one dataset, plus an unrelated file.
func archiveGraph(t *testing.T) (*prov.Graph, map[string]prov.Ref) {
	t.Helper()
	col := pass.New(sim.NewRand(4), nil)
	b := trace.NewBuilder()
	gen := b.Spawn(0, "/bin/analyze", "analyze")
	b.Read(gen, "dataset.csv", 1000)
	b.Write(gen, "report-2009.txt", 100).Close(gen, "report-2009.txt")
	b.Write(gen, "figures-2009.dat", 100).Close(gen, "figures-2009.dat")
	other := b.Spawn(0, "/bin/unrelated", "unrelated")
	b.Write(other, "notes.txt", 50).Close(other, "notes.txt")
	for _, ev := range b.Trace().Events {
		col.Apply(ev)
	}
	refs := make(map[string]prov.Ref)
	for _, p := range []string{"dataset.csv", "report-2009.txt", "figures-2009.dat", "notes.txt"} {
		r, ok := col.FileRef(p)
		if !ok {
			t.Fatalf("missing %s", p)
		}
		refs[p] = r
	}
	return col.Graph(), refs
}

func TestContentSearchSeeds(t *testing.T) {
	g, refs := archiveGraph(t)
	seeds := ContentSearch(g, "2009")
	if len(seeds) != 2 {
		t.Fatalf("seeds = %d, want 2", len(seeds))
	}
	found := map[prov.Ref]bool{}
	for _, s := range seeds {
		found[s] = true
	}
	if !found[refs["report-2009.txt"]] || !found[refs["figures-2009.dat"]] {
		t.Fatalf("wrong seeds: %v", seeds)
	}
}

func TestRerankSurfacesProvenanceNeighbours(t *testing.T) {
	g, refs := archiveGraph(t)
	results := Rerank(g, ContentSearch(g, "2009"), DefaultOptions())
	pos := map[prov.Ref]int{}
	for i, r := range results {
		pos[r.Ref] = i
	}
	// The dataset, never matched by content, must appear via provenance.
	dsPos, ok := pos[refs["dataset.csv"]]
	if !ok {
		t.Fatal("dataset not surfaced by provenance propagation")
	}
	// The unrelated file must not appear at all.
	if _, ok := pos[refs["notes.txt"]]; ok {
		t.Fatal("unrelated file gained weight")
	}
	// Seeds outrank the propagated neighbour.
	if pos[refs["report-2009.txt"]] > dsPos {
		t.Fatal("seed ranked below propagated neighbour")
	}
}

func TestRerankWeightsDecreaseWithDistance(t *testing.T) {
	// chain: a -> p1 -> b -> p2 -> c ; seed a. b (distance 2) must outrank
	// c (distance 4).
	col := pass.New(sim.NewRand(5), nil)
	tb := trace.NewBuilder()
	p1 := tb.Spawn(0, "/bin/s1", "s1")
	tb.Read(p1, "a", 10).Write(p1, "b", 10).Close(p1, "b")
	p2 := tb.Spawn(0, "/bin/s2", "s2")
	tb.Read(p2, "b", 10).Write(p2, "c", 10).Close(p2, "c")
	for _, ev := range tb.Trace().Events {
		col.Apply(ev)
	}
	g := col.Graph()
	ra, _ := col.FileRef("a")
	rb, _ := col.FileRef("b")
	rc, _ := col.FileRef("c")
	opts := DefaultOptions()
	opts.Rounds = 4
	results := Rerank(g, []prov.Ref{ra}, opts)
	w := map[prov.Ref]float64{}
	for _, r := range results {
		w[r.Ref] = r.Weight
	}
	if !(w[ra] > w[rb] && w[rb] > w[rc]) {
		t.Fatalf("weights not distance-ordered: a=%v b=%v c=%v", w[ra], w[rb], w[rc])
	}
	if w[rc] == 0 {
		t.Fatal("distance-4 file never reached with 4 rounds")
	}
}

func TestProcessesExcludedByDefault(t *testing.T) {
	g, _ := archiveGraph(t)
	for _, r := range Rerank(g, ContentSearch(g, "2009"), DefaultOptions()) {
		if n := g.Node(r.Ref); n.Type == prov.Process {
			t.Fatalf("process %s in results", n.Name)
		}
	}
	opts := DefaultOptions()
	opts.KeepProcesses = true
	sawProc := false
	for _, r := range Rerank(g, ContentSearch(g, "2009"), opts) {
		if n := g.Node(r.Ref); n.Type == prov.Process {
			sawProc = true
		}
	}
	if !sawProc {
		t.Fatal("KeepProcesses did not include the generating process")
	}
}

// TestRerankStoredMatchesLocalGraph commits the archive through P3 and
// checks that ranking the provenance streamed back through the query API
// gives the same order as ranking the collector's local graph.
func TestRerankStoredMatchesLocalGraph(t *testing.T) {
	env := sim.NewEnv(sim.DefaultConfig())
	dep := core.NewDeployment(env)
	proto := core.NewP3(dep, core.Options{})
	col := pass.New(env.Rand(), nil)
	fs := pasfs.New(env, proto, col, pasfs.Config{Collect: true, AsyncCommits: false})

	b := trace.NewBuilder()
	gen := b.Spawn(0, "/bin/analyze", "analyze")
	b.Read(gen, "mnt/dataset.csv", 1000)
	b.Write(gen, "mnt/report-2009.txt", 100).Close(gen, "mnt/report-2009.txt")
	b.Write(gen, "mnt/figures-2009.dat", 100).Close(gen, "mnt/figures-2009.dat")
	other := b.Spawn(0, "/bin/unrelated", "unrelated")
	b.Write(other, "mnt/notes.txt", 50).Close(other, "mnt/notes.txt")
	if err := fs.Run(b.Trace()); err != nil {
		t.Fatal(err)
	}
	if err := proto.Settle(); err != nil {
		t.Fatal(err)
	}
	dep.Settle()

	eng := query.New(dep, core.BackendSDB)
	eng.SetCache(query.NewCache(0))
	sg, err := query.CollectGraph(eng.Run(query.Spec{Direction: query.All, Project: query.ProjectBundles}))
	if err != nil {
		t.Fatal(err)
	}
	stored := Rerank(sg, ContentSearch(sg, "2009"), DefaultOptions())
	g := col.Graph()
	local := Rerank(g, ContentSearch(g, "2009"), DefaultOptions())
	if len(stored) != len(local) {
		t.Fatalf("stored pipeline ranked %d results, local graph %d", len(stored), len(local))
	}
	for i := range stored {
		if stored[i].Ref != local[i].Ref {
			t.Fatalf("rank %d diverged: stored %s vs local %s", i, stored[i].Ref, local[i].Ref)
		}
	}
}

func TestEmptySeeds(t *testing.T) {
	g, _ := archiveGraph(t)
	if got := Rerank(g, nil, DefaultOptions()); len(got) != 0 {
		t.Fatalf("results from no seeds: %v", got)
	}
	if got := ContentSearch(g, ""); len(got) != 0 {
		t.Fatalf("empty query matched: %v", got)
	}
}
