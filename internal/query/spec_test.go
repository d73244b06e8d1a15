package query

import (
	"errors"
	"fmt"
	"testing"

	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// fanDeployment populates a database deployment with one process ("prog")
// that has children direct children, each with one grandchild — the two
// level fan used by the IN-batch boundary tests. Strict consistency keeps
// result sets deterministic.
func fanDeployment(t testing.TB, children int, topo core.Topology) (*core.Deployment, prov.Ref) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Consistency = sim.Strict
	env := sim.NewEnv(cfg)
	dep := core.NewShardedDeployment(env, topo)
	rnd := sim.NewRand(11)
	newRef := func() prov.Ref { return prov.Ref{UUID: uuid.New(rnd), Version: 1} }

	procRef := newRef()
	specs := []core.ItemSpec{{Ref: procRef, Type: "proc", Name: "prog"}}
	for c := 0; c < children; c++ {
		child := newRef()
		specs = append(specs, core.ItemSpec{
			Ref: child, Type: "file", Name: fmt.Sprintf("mnt/c%03d", c), Input: procRef.String(),
		})
		grand := newRef()
		specs = append(specs, core.ItemSpec{
			Ref: grand, Type: "file", Name: fmt.Sprintf("mnt/g%03d", c), Input: child.String(),
		})
	}
	if err := core.PopulateItems(dep.DB, specs); err != nil {
		t.Fatal(err)
	}
	return dep, procRef
}

// selects reads the billed SELECT count.
func selects(dep *core.Deployment) int64 {
	return dep.Env.Meter().Usage().OpsByKind["sdb.Select"]
}

// progSpec is the Q4 shape over the synthetic fan.
func progSpec() Spec {
	return Spec{Roots: procSpecRoots("prog"), Direction: Descendants, Workers: 4}
}

// TestINBatchBoundary pins the SELECT count at the IN-predicate capacity
// edge: a 20-ref BFS frontier fits one batch, a 21-ref frontier needs two.
func TestINBatchBoundary(t *testing.T) {
	for _, tc := range []struct {
		children    int
		wantSelects int64
		wantResults int
	}{
		// roots(1) + level1 frontier{proc}=1 + level2 frontier{20 kids}=1
		// + level3 frontier{20 grandkids}=1 (empty round) = 4
		{children: inBatch, wantSelects: 4, wantResults: 2 * inBatch},
		// level2 and the empty level3 both split into 2 batches = 6
		{children: inBatch + 1, wantSelects: 6, wantResults: 2 * (inBatch + 1)},
	} {
		dep, _ := fanDeployment(t, tc.children, core.Topology{})
		e := New(dep, core.BackendSDB)
		before := selects(dep)
		refs, err := e.CollectRefs(progSpec())
		if err != nil {
			t.Fatal(err)
		}
		if len(refs) != tc.wantResults {
			t.Fatalf("children=%d: got %d descendants, want %d", tc.children, len(refs), tc.wantResults)
		}
		if got := selects(dep) - before; got != tc.wantSelects {
			t.Errorf("children=%d: %d SELECTs, want %d", tc.children, got, tc.wantSelects)
		}
	}
}

// chainDeployment populates a K=4 database deployment with one dependency
// chain of depth+1 nodes on distinct uuids, node i taking node i-1 as its
// input, and returns the nodes root first.
func chainDeployment(t testing.TB, depth int) (*core.Deployment, []prov.Ref) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Consistency = sim.Strict
	dep := core.NewShardedDeployment(sim.NewEnv(cfg), core.Topology{WALShards: 4, DBShards: 4})
	rnd := sim.NewRand(23)
	var refs []prov.Ref
	var specs []core.ItemSpec
	for i := 0; i <= depth; i++ {
		spec := core.ItemSpec{Ref: prov.Ref{UUID: uuid.New(rnd), Version: 1}, Type: "file", Name: fmt.Sprintf("mnt/n%02d", i)}
		if i > 0 {
			spec.Input = refs[i-1].String()
		}
		refs = append(refs, spec.Ref)
		specs = append(specs, spec)
	}
	if err := core.PopulateItems(dep.DB, specs); err != nil {
		t.Fatal(err)
	}
	return dep, refs
}

// TestRoutedRequestCounts pins what a query bills on a K=4 fabric: a fetch
// by item name costs one SELECT per home shard it touches, not one per
// shard, while the child lookup of a descendants level — children live on
// any shard — still asks all four.
func TestRoutedRequestCounts(t *testing.T) {
	const depth = 10
	dep, chain := chainDeployment(t, depth)
	e := New(dep, core.BackendSDB)
	leaf := chain[depth]
	// A full IN batch: the chain plus never-recorded refs, which route too.
	batch := append([]prov.Ref(nil), chain...)
	for rnd := sim.NewRand(29); len(batch) < inBatch; {
		batch = append(batch, prov.Ref{UUID: uuid.New(rnd), Version: 1})
	}
	homes := make(map[int]bool)
	for _, r := range batch {
		homes[dep.DB.ShardForItem(r.String())] = true
	}
	if len(homes) < 2 {
		t.Fatalf("batch landed on %d shard(s); the pins need a spread", len(homes))
	}
	for _, tc := range []struct {
		name        string
		spec        Spec
		wantResults int
		wantSelects int64
	}{
		// One single-ref itemName() fetch per level, root included: 11, where
		// the every-shard scatter billed 44.
		{"ancestors+bundles", Spec{Roots: Roots{Refs: []prov.Ref{leaf}}, Direction: Ancestors, Project: ProjectBundles}, depth + 1, depth + 1},
		{"versions", Spec{Roots: Roots{Refs: []prov.Ref{leaf}}, Direction: Versions, Project: ProjectBundles}, 1, 1},
		// One 20-ref batch, split across the refs' home shards: at most 4.
		{"bundles of a 20-ref batch", Spec{Roots: Roots{Refs: batch}, Direction: Self, Project: ProjectBundles}, depth + 1, int64(len(homes))},
		// 11 rounds (the last finds nothing) × 4 shards: the count at the
		// parent commit (39c0761), which this plan must not change.
		{"descendants", Spec{Roots: Roots{Refs: chain[:1]}, Direction: Descendants}, depth, 4 * (depth + 1)},
	} {
		before := selects(dep)
		results, err := e.Collect(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(results) != tc.wantResults {
			t.Errorf("%s: %d results, want %d", tc.name, len(results), tc.wantResults)
		}
		if got := selects(dep) - before; got != tc.wantSelects {
			t.Errorf("%s: %d SELECTs, want %d", tc.name, got, tc.wantSelects)
		}
	}
}

// TestEmptyFrontier covers the degenerate traversals: a root with no
// children terminates after one empty round, and a root selector matching
// nothing terminates without any traversal SELECT at all.
func TestEmptyFrontier(t *testing.T) {
	dep, procRef := fanDeployment(t, 0, core.Topology{})
	e := New(dep, core.BackendSDB)

	refs, err := e.CollectRefs(progSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 0 {
		t.Fatalf("childless proc returned %d descendants", len(refs))
	}

	before := selects(dep)
	refs, err = e.CollectRefs(Spec{
		Roots:     Roots{Attrs: []AttrMatch{{Attr: prov.AttrName, Value: "no-such-program"}}},
		Direction: Descendants,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 0 {
		t.Fatalf("unmatched roots returned %d results", len(refs))
	}
	if got := selects(dep) - before; got != 1 {
		t.Errorf("empty root set issued %d SELECTs, want 1 (roots lookup only)", got)
	}

	// Ancestors of a never-recorded ref: the dangling root is skipped.
	ghost := prov.Ref{UUID: procRef.UUID, Version: 99}
	res, err := e.Collect(Spec{Roots: Roots{Refs: []prov.Ref{ghost}}, Direction: Ancestors})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("ancestors of a ghost ref returned %d results", len(res))
	}

	// An unrecorded uuid root contributes nothing to a traversal (like a
	// ghost Ref, and like the S3 backend) — it must not abort the query.
	ghostUUID := uuid.New(sim.NewRand(99))
	refs, err = e.CollectRefs(Spec{
		Roots:     Roots{UUIDs: []uuid.UUID{ghostUUID, procRef.UUID}},
		Direction: Descendants,
	})
	if err != nil {
		t.Fatalf("unrecorded uuid root aborted the traversal: %v", err)
	}
	if len(refs) != 0 {
		t.Fatalf("childless traversal returned %d results", len(refs))
	}
	// The Versions direction keeps Q2's contract: no recorded versions at
	// all is ErrNoProvenance...
	if _, err := e.Collect(Spec{Roots: Roots{UUIDs: []uuid.UUID{ghostUUID}}, Direction: Versions}); !errors.Is(err, core.ErrNoProvenance) {
		t.Fatalf("Versions of an unrecorded uuid returned %v, want ErrNoProvenance", err)
	}
	// ...but a ghost root alongside a recorded one is skipped, not fatal.
	bundles, err := e.CollectBundles(Spec{
		Roots:     Roots{UUIDs: []uuid.UUID{ghostUUID, procRef.UUID}},
		Direction: Versions,
	})
	if err != nil {
		t.Fatalf("Versions with a mixed ghost/recorded root set failed: %v", err)
	}
	if len(bundles) != 1 || bundles[0].Ref != procRef {
		t.Fatalf("mixed-root Versions returned %v, want just %s", bundles, procRef)
	}
}

// TestMidFanoutShardFailure injects a SELECT fault into one domain shard of
// a K=4 fabric and verifies the scatter-gather BFS surfaces the failure
// instead of hanging or returning a partial closure.
func TestMidFanoutShardFailure(t *testing.T) {
	dep, _ := fanDeployment(t, 2*inBatch, core.Topology{DBShards: 4})
	e := New(dep, core.BackendSDB)

	boom := errors.New("shard 2 on fire")
	inj := dep.Env.InstallFaults(nil)
	inj.FailOp(dep.DB.Shard(2).Name(), "sdb.Select", boom)
	_, err := e.CollectRefs(progSpec())
	if !errors.Is(err, boom) {
		t.Fatalf("BFS over a failing shard returned %v, want the injected fault", err)
	}

	// The streaming cursor reports the same failure as its final element.
	var streamErr error
	for _, err := range e.Run(progSpec()) {
		if err != nil {
			streamErr = err
		}
	}
	if !errors.Is(streamErr, boom) {
		t.Fatalf("stream returned %v, want the injected fault", streamErr)
	}

	// Clearing the fault restores the full closure.
	inj.ClearOp(dep.DB.Shard(2).Name(), "sdb.Select")
	refs, err := e.CollectRefs(progSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 4*inBatch {
		t.Fatalf("after clearing the fault: %d descendants, want %d", len(refs), 4*inBatch)
	}
}

// TestCacheAccounting pins the read-through behaviour: a repeated traversal
// over a settled corpus issues zero SELECTs the second time, returns the
// identical result set, and the hit/miss counters reconcile.
func TestCacheAccounting(t *testing.T) {
	dep, _ := fanDeployment(t, 24, core.Topology{DBShards: 2})
	e := New(dep, core.BackendSDB)
	c := NewCache(0)
	e.SetCache(c)

	cold, err := e.CollectRefs(progSpec())
	if err != nil {
		t.Fatal(err)
	}
	s1 := c.Stats()
	if s1.Misses == 0 || s1.Hits != 0 {
		t.Fatalf("cold run stats: %+v, want only misses", s1)
	}

	before := selects(dep)
	warm, err := e.CollectRefs(progSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := selects(dep) - before; got != 0 {
		t.Errorf("warm run issued %d SELECTs, want 0", got)
	}
	s2 := c.Stats()
	if s2.Misses != s1.Misses {
		t.Errorf("warm run added misses: %d -> %d", s1.Misses, s2.Misses)
	}
	if s2.Hits == 0 {
		t.Error("warm run recorded no hits")
	}
	if fmt.Sprint(cold) != fmt.Sprint(warm) {
		t.Fatal("cached result diverged from cold result")
	}

	// An uncached engine must not touch the counters.
	plain := New(dep, core.BackendSDB)
	if _, err := plain.CollectRefs(progSpec()); err != nil {
		t.Fatal(err)
	}
	if s3 := c.Stats(); s3.Hits != s2.Hits || s3.Misses != s2.Misses {
		t.Error("uncached engine moved the cache counters")
	}
}

// TestCacheBoundedLRU forces evictions through a tiny capacity and checks
// results stay correct when entries churn.
func TestCacheBoundedLRU(t *testing.T) {
	dep, _ := fanDeployment(t, 30, core.Topology{})
	e := New(dep, core.BackendSDB)
	c := NewCache(4)
	e.SetCache(c)
	cold, err := e.CollectRefs(progSpec())
	if err != nil {
		t.Fatal(err)
	}
	again, err := e.CollectRefs(progSpec())
	if err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Evictions == 0 {
		t.Fatalf("capacity-4 cache never evicted: %+v", s)
	}
	if s.Entries > 4 {
		t.Fatalf("cache grew past capacity: %+v", s)
	}
	if fmt.Sprint(cold) != fmt.Sprint(again) {
		t.Fatal("eviction churn changed results")
	}
}

// TestQ3FilterBothWays is the filesOnly fix: the default Q3 keeps the
// paper-faithful unfiltered count, and the same Spec with a type filter
// returns exactly the file outputs — on both backends.
func TestQ3FilterBothWays(t *testing.T) {
	for _, tc := range backendsUnderTest() {
		t.Run(tc.name, func(t *testing.T) {
			dep, col, _ := miniBlast(t, tc.mk)
			e := New(dep, tc.backend)

			unfiltered, err := e.CollectRefs(Q3Spec("blastall", nil, 4))
			if err != nil {
				t.Fatal(err)
			}
			filtered, err := e.CollectRefs(Q3Spec("blastall", TypeIs(prov.File), 4))
			if err != nil {
				t.Fatal(err)
			}
			if len(filtered) == 0 || len(filtered) > len(unfiltered) {
				t.Fatalf("filtered %d vs unfiltered %d", len(filtered), len(unfiltered))
			}
			want := make(map[prov.Ref]bool)
			for _, p := range []string{"mnt/work/raw0", "mnt/work/raw1", "mnt/work/raw2"} {
				r, ok := col.FileRef(p)
				if !ok {
					t.Fatalf("collector lost %s", p)
				}
				want[r] = true
			}
			got := make(map[prov.Ref]bool)
			for _, r := range filtered {
				got[r] = true
			}
			for r := range want {
				if !got[r] {
					t.Fatalf("filtered Q3 missed file output %s (got %v)", r, filtered)
				}
			}
			// Every filtered result must be in the unfiltered superset.
			super := make(map[prov.Ref]bool)
			for _, r := range unfiltered {
				super[r] = true
			}
			for _, r := range filtered {
				if !super[r] {
					t.Fatalf("filtered result %s not in unfiltered set", r)
				}
			}
			// The filter selects output, not traversal: a bundles projection
			// carries only file bundles.
			res, err := e.Collect(Q3Spec("blastall", TypeIs(prov.File), 4))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res {
				if r.Bundle == nil || r.Bundle.Type != prov.File {
					t.Fatalf("filtered result %s carries non-file bundle", r.Ref)
				}
			}
		})
	}
}

// TestAncestorsMatchLocalGraph checks the new Ancestors direction on both
// backends: the remote walk must reproduce exactly the collector's local
// ancestor closure (plus the root itself, which Ancestors includes at
// depth 0). Each backend run owns its deployment, so uuids differ across
// runs — the local graph is the shared oracle.
func TestAncestorsMatchLocalGraph(t *testing.T) {
	for _, tc := range backendsUnderTest() {
		t.Run(tc.name, func(t *testing.T) {
			dep, col, _ := miniBlast(t, tc.mk)
			e := New(dep, tc.backend)
			refs, err := e.CollectRefs(Spec{
				Roots:     Roots{Paths: []string{"mnt/out/hits1"}},
				Direction: Ancestors,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(refs) < 3 {
				t.Fatalf("ancestors closure too small: %v", refs)
			}
			sortRefs(refs)
			root, _ := col.FileRef("mnt/out/hits1")
			want := append(col.Graph().AncestorClosure(root), root)
			sortRefs(want)
			if fmt.Sprint(refs) != fmt.Sprint(want) {
				t.Fatalf("ancestors diverged from local graph\n got %v\nwant %v", refs, want)
			}
		})
	}
}

// TestStreamingStopsEarly verifies the cursor honours an early break: a
// consumer that stops after the first result does not force the full
// closure to materialize or error out.
func TestStreamingStopsEarly(t *testing.T) {
	dep, _ := fanDeployment(t, 30, core.Topology{})
	e := New(dep, core.BackendSDB)
	n := 0
	for _, err := range e.Run(progSpec()) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		break
	}
	if n != 1 {
		t.Fatalf("consumed %d results after break", n)
	}
}

// TestSelfDirection is the FindByAttr shape: resolve roots, emit them,
// nothing else.
func TestSelfDirection(t *testing.T) {
	dep, procRef := fanDeployment(t, 3, core.Topology{})
	e := New(dep, core.BackendSDB)
	refs, err := e.CollectRefs(Spec{
		Roots:     Roots{Attrs: []AttrMatch{{Attr: prov.AttrName, Value: "prog"}, {Attr: prov.AttrType, Value: "proc"}}},
		Direction: Self,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 || refs[0] != procRef {
		t.Fatalf("Self returned %v, want [%s]", refs, procRef)
	}
	// Bundle projection resolves the items.
	res, err := e.Collect(Spec{
		Roots:     Roots{Refs: []prov.Ref{procRef}},
		Direction: Self,
		Project:   ProjectBundles,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Bundle == nil || res[0].Bundle.Name != "prog" {
		t.Fatalf("Self bundles projection wrong: %+v", res)
	}
}

// TestUUIDRootsReuseFetchedBundles pins the root-resolution cost: resolving
// uuid roots already fetches their version bundles, so a bundle-projected
// Self (or the root level of an Ancestors walk) must not re-fetch the same
// items — exactly one routed SELECT, even with no cache installed.
func TestUUIDRootsReuseFetchedBundles(t *testing.T) {
	dep, procRef := fanDeployment(t, 2, core.Topology{})
	e := New(dep, core.BackendSDB)
	before := selects(dep)
	res, err := e.Collect(Spec{
		Roots:     Roots{UUIDs: []uuid.UUID{procRef.UUID}},
		Direction: Self,
		Project:   ProjectBundles,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Bundle == nil {
		t.Fatalf("Self over uuid root returned %+v", res)
	}
	if got := selects(dep) - before; got != 1 {
		t.Errorf("uuid-rooted Self issued %d SELECTs, want 1 (no re-fetch of prefetched bundles)", got)
	}
}

// TestRunRejectsRootlessTraversal pins the validation error.
func TestRunRejectsRootlessTraversal(t *testing.T) {
	dep, _ := fanDeployment(t, 1, core.Topology{})
	e := New(dep, core.BackendSDB)
	if _, err := e.Collect(Spec{Direction: Descendants}); err == nil {
		t.Fatal("rootless traversal accepted")
	}
}

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec([]string{
		"attr:name=blastall", "attr:type=proc",
		"dir=descendants", "depth=1", "filter=type:file", "project=bundles", "workers=8",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Roots.Attrs) != 2 || spec.Direction != Descendants || spec.MaxDepth != 1 ||
		spec.Filter == nil || spec.Project != ProjectBundles || spec.Workers != 8 {
		t.Fatalf("parsed spec wrong: %+v", spec)
	}
	if !spec.Filter.Match(&prov.Bundle{Type: prov.File}) || spec.Filter.Match(&prov.Bundle{Type: prov.Process}) {
		t.Fatal("parsed filter does not select files")
	}

	// No tokens: the browse-everything default.
	spec, err = ParseSpec(nil)
	if err != nil || spec.Direction != All {
		t.Fatalf("empty spec: %+v, %v", spec, err)
	}

	// Repeated filters AND together.
	spec, err = ParseSpec([]string{"path:mnt/x", "dir=versions", "filter=type:file", "filter=name:mnt/x"})
	if err != nil {
		t.Fatal(err)
	}
	if !spec.Filter.Match(&prov.Bundle{Type: prov.File, Name: "mnt/x"}) ||
		spec.Filter.Match(&prov.Bundle{Type: prov.File, Name: "mnt/y"}) {
		t.Fatal("ANDed filters wrong")
	}

	for _, bad := range [][]string{
		{"dir=sideways"},
		{"uuid:not-a-uuid"},
		{"ref:no-version"},
		{"attr:novalue"},
		{"depth=x"},
		{"filter=color:red"},
		{"project=json"},
		{"frobnicate"},
		{"dir=descendants"}, // traversal without roots
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%v) accepted", bad)
		}
	}
}

// TestFilterComposition exercises the combinators directly.
func TestFilterComposition(t *testing.T) {
	b := &prov.Bundle{
		Ref:  prov.Ref{Version: 1},
		Type: prov.File,
		Name: "mnt/report.txt",
		Records: []prov.Record{
			{Attr: prov.AttrName, Value: "mnt/report.txt"},
			{Attr: "pid", Value: "42"},
		},
	}
	cases := []struct {
		f    *Filter
		want bool
	}{
		{nil, true},
		{TypeIs(prov.File), true},
		{TypeIs(prov.Process), false},
		{NameIs("mnt/report.txt"), true},
		{AttrEq("pid", "42"), true},
		{AttrEq("pid", "43"), false},
		{And(TypeIs(prov.File), AttrEq("pid", "42")), true},
		{And(TypeIs(prov.File), AttrEq("pid", "43")), false},
		{Or(TypeIs(prov.Process), NameIs("mnt/report.txt")), true},
		{Not(TypeIs(prov.Process)), true},
		{Not(And(TypeIs(prov.File), Not(AttrEq("pid", "43")))), false},
	}
	for i, tc := range cases {
		if got := tc.f.Match(b); got != tc.want {
			t.Errorf("case %d (%s): Match = %v, want %v", i, tc.f, got, tc.want)
		}
	}
}
