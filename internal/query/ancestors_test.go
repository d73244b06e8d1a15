package query

import (
	"fmt"
	"testing"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// versionRun is one file written n times by one process, as PASS records
// it: version v reads the process node (an input edge) and, from version 2
// on, links version v−1 (a prev edge). The process bundle comes first, then
// versions 1..n, so bundles[v] is version v.
func versionRun(seed int64, n int) []prov.Bundle {
	rnd := sim.NewRand(seed)
	proc := prov.Ref{UUID: uuid.New(rnd), Version: 1}
	file := uuid.New(rnd)
	out := []prov.Bundle{{Ref: proc, Type: prov.Process, Name: "prog", Records: []prov.Record{
		{Attr: prov.AttrType, Value: "proc"},
		{Attr: prov.AttrName, Value: "prog"},
	}}}
	for v := 1; v <= n; v++ {
		recs := []prov.Record{
			{Attr: prov.AttrType, Value: "file"},
			{Attr: prov.AttrName, Value: "mnt/out"},
			{Attr: prov.AttrInput, Xref: proc},
		}
		if v > 1 {
			recs = append(recs, prov.Record{Attr: prov.AttrPrevVer, Xref: prov.Ref{UUID: file, Version: v - 1}})
		}
		out = append(out, prov.Bundle{Ref: prov.Ref{UUID: file, Version: v}, Type: prov.File, Name: "mnt/out", Records: recs})
	}
	return out
}

// versionRunDeployment is a K=4 database deployment seeded with seed, under
// strict consistency or under eventual consistency with hour-long mean
// staleness windows.
func versionRunDeployment(seed int64, consistency sim.Consistency) *core.Deployment {
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	cfg.Consistency = consistency
	cfg.StalenessMean = time.Hour
	return core.NewShardedDeployment(sim.NewEnv(cfg), core.Topology{WALShards: 4, DBShards: 4})
}

// putBundles writes bundles as database items.
func putBundles(tb testing.TB, dep *core.Deployment, bundles []prov.Bundle) {
	tb.Helper()
	reqs, err := core.ItemsForBundles(dep.Store, bundles)
	if err != nil {
		tb.Fatal(err)
	}
	if err := dep.DB.BulkPut(reqs, 4, false); err != nil {
		tb.Fatal(err)
	}
}

// TestAncestorsRideVersionRuns pins what the padded Ancestors walk bills
// and ships on a 30-version run at K=4, and that a pad eventual consistency
// hides changes nothing but where the walk fetches it.
func TestAncestorsRideVersionRuns(t *testing.T) {
	const n = 30
	bundles := versionRun(31, n)
	proc, file := bundles[0].Ref, bundles[1].Ref.UUID
	version := func(v int) prov.Ref { return prov.Ref{UUID: file, Version: v} }
	spec := Spec{Roots: Roots{Refs: []prov.Ref{version(n)}}, Direction: Ancestors, Project: ProjectBundles}

	dep := versionRunDeployment(1, sim.Strict)
	putBundles(t, dep, bundles)
	if dep.DB.Directory().Route(proc.UUID.String()) == dep.DB.Directory().Route(file.String()) {
		t.Fatal("the process and the file share a home shard; the pins need them apart")
	}
	before := selects(dep)
	want := stream(t, New(dep, core.BackendSDB), spec)
	if len(want) != n+1 {
		t.Fatalf("%d ancestors results, want %d: %v", len(want), n+1, want)
	}
	// v30 with v29…v11 as pads; the process, which has no earlier version;
	// v10 with v9…v1. An unpadded walk asks one SELECT per level, and two
	// at the level that also reaches the process: 31.
	if got := selects(dep) - before; got != 3 {
		t.Errorf("ancestors of v%d: %d SELECTs, want 3", n, got)
	}

	// A depth-bounded walk pads only as deep as it can still go: from v30
	// at MaxDepth 3 nothing below v27 ships. A fresh cache records every
	// item the walk's reads shipped.
	e := New(dep, core.BackendSDB)
	shipped := NewCache(0)
	e.SetCache(shipped)
	before = selects(dep)
	bounded := spec
	bounded.MaxDepth = 3
	got := stream(t, e, bounded)
	if len(got) != 5 || fmt.Sprint(got) != fmt.Sprint(want[:5]) {
		t.Errorf("MaxDepth 3 streamed %v, want the first levels of %v", got, want)
	}
	if got := selects(dep) - before; got != 2 {
		t.Errorf("ancestors of v%d at MaxDepth 3: %d SELECTs, want 2", n, got)
	}
	for v := 1; v <= n; v++ {
		if has := shipped.has(itemKey(version(v).String())); has != (v >= n-3) {
			t.Errorf("MaxDepth 3: v%d shipped = %v", v, has)
		}
	}

	// Eventual consistency: v20, written last, is still inside its
	// staleness window when the first SELECT asks for it as a pad. A seed
	// whose read hides it is searched for, then the clock runs past every
	// window, so the walk finds v20 the usual way at depth 10 and streams
	// what the strict walk did.
	const hidden = 20
	for seed := int64(1); ; seed++ {
		if seed > 64 {
			t.Fatal("no seed in 1..64 hid the pad")
		}
		dep := versionRunDeployment(seed, sim.Eventual)
		putBundles(t, dep, append(bundles[:hidden:hidden], bundles[hidden+1:]...))
		dep.Env.Clock().Advance(9 * time.Hour) // past the 8× clamp on a window
		putBundles(t, dep, bundles[hidden:hidden+1])
		e := New(dep, core.BackendSDB)
		shipped := NewCache(0)
		e.SetCache(shipped)
		var got []string
		hid := false
		for r, err := range e.Run(spec) {
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 { // the depth-0 SELECT, pads and all, has run
				hid = !shipped.has(itemKey(version(hidden).String()))
				dep.Env.Clock().Advance(9 * time.Hour)
			}
			got = append(got, streamLine(r))
		}
		if !hid {
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("seed %d, pad v%d hidden: streamed\n %v\nwant the strict stream\n %v", seed, hidden, got, want)
		}
		break
	}
}

// ancestorRoots draws ref roots that exercise the pad rule: one to three
// recorded nodes, now and then an unrecorded version of a recorded uuid or a
// root set too big for one IN batch, and now and then the uuid roots of the
// most rewritten file.
func ancestorRoots(rnd *sim.Rand, tw *twin) Roots {
	var roots Roots
	n := 1 + rnd.Intn(3)
	if rnd.Intn(8) == 0 {
		n = inBatch + 1 + rnd.Intn(inBatch)
	}
	for range n {
		roots.Refs = append(roots.Refs, tw.nodes[rnd.Intn(len(tw.nodes))])
	}
	if rnd.Intn(5) == 0 {
		roots.Refs = append(roots.Refs, prov.Ref{UUID: tw.files[rnd.Intn(len(tw.files))], Version: 40})
	}
	if rnd.Intn(4) == 0 {
		roots.UUIDs = []uuid.UUID{tw.files[0]}
	}
	return roots
}

// TestPaddedAncestorsMatchStore: over seeded PASS-shaped histories (version
// runs linked by prev, processes linked by input, forkparent and execfile),
// the database's padded Ancestors stream equals the store's — which pads
// nothing — at K=1 and K=4, with the cache off and subscribed, for MaxDepth
// 0 through 3.
func TestPaddedAncestorsMatchStore(t *testing.T) {
	for _, k := range []int{1, 4} {
		for seed := int64(70); seed < 73; seed++ {
			tw := newTwinK(t, seed, 30, false, k)
			cached := New(tw.db.dep, core.BackendSDB)
			cached.SetCache(NewCache(0))
			if err := cached.Subscribe(); err != nil {
				t.Fatal(err)
			}
			rnd := sim.NewRand(seed)
			for i := range 40 {
				spec := Spec{Roots: ancestorRoots(rnd, tw), Direction: Ancestors, MaxDepth: i % 4, Project: Projection(rnd.Intn(2))}
				want := fmt.Sprint(stream(t, tw.s3, spec))
				for _, e := range []*Engine{tw.db, cached} {
					if got := fmt.Sprint(stream(t, e, spec)); got != want {
						t.Errorf("K=%d seed %d case %d (cache %v, MaxDepth %d): streams differ\n store %s\n    db %s",
							k, seed, i, e.cache != nil, spec.MaxDepth, want, got)
					}
				}
			}
			cached.Unsubscribe()
		}
	}
}
