package query

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// fileNode is a file bundle named name that takes inputs as input edges.
func fileNode(ref prov.Ref, name string, inputs ...prov.Ref) prov.Bundle {
	recs := []prov.Record{{Attr: prov.AttrType, Value: "file"}, {Attr: prov.AttrName, Value: name}}
	for _, in := range inputs {
		recs = append(recs, prov.Record{Attr: prov.AttrInput, Xref: in})
	}
	return prov.Bundle{Ref: ref, Type: prov.File, Name: name, Records: recs}
}

// twinOfBundles writes file bundles, each its own object, into the store
// through P1 and into a K=4 database, with identical refs.
func twinOfBundles(t *testing.T, bundles []prov.Bundle) (s3, db *Engine) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Consistency = sim.Strict
	depS3 := core.NewDeployment(sim.NewEnv(cfg))
	p1 := core.NewP1(depS3, core.Options{})
	for _, b := range bundles {
		if err := p1.Commit(core.FileObject{Path: b.Name, Size: 1024, Ref: b.Ref}, []prov.Bundle{b}); err != nil {
			t.Fatal(err)
		}
	}
	depDB := versionRunDeployment(1, sim.Strict)
	putBundles(t, depDB, bundles)
	return New(depS3, core.BackendS3), New(depDB, core.BackendSDB)
}

// asked returns the refs a walk's child reads asked, in canonical order: a
// cache records a kids observation for each, pads included.
func asked(t *testing.T, c *Cache) []string {
	t.Helper()
	var out []string
	for key := range c.entries {
		if name, ok := strings.CutPrefix(key, kidsPrefix); ok {
			if _, err := prov.ParseRef(name); err != nil {
				t.Errorf("a child read asked %q: %v", name, err)
			}
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

// TestReadaheadPadSkipsEarlierBatch pins the pad rule a first cut of the
// readahead broke on TestCrossBackendStreamEquivalence's inputOnly case 41:
// a level of 21 refs whose tail ref x9 rides a version chain while x10, the
// pad it would take first, sorts before it ("_10" < "_9") into the first
// batch. The pad skips x10 and asks x11 on, and the stream equals the
// store's with the cache off and on.
func TestReadaheadPadSkipsEarlierBatch(t *testing.T) {
	rnd := sim.NewRand(43)
	ref := func(u uuid.UUID, v int) prov.Ref { return prov.Ref{UUID: u, Version: v} }
	root, q, x := uuid.New(rnd), uuid.New(rnd), uuid.New(rnd)
	x[0] = 0xff // x sorts after every other object of its level
	bundles := []prov.Bundle{
		fileNode(ref(root, 1), "mnt/root"),
		fileNode(ref(q, 1), "mnt/q", ref(root, 1)),
		fileNode(ref(x, 8), "mnt/x", ref(root, 1)),
		fileNode(ref(x, 9), "mnt/x", ref(x, 8)),
		fileNode(ref(x, 10), "mnt/x", ref(q, 1), ref(x, 9)),
		fileNode(ref(x, 11), "mnt/x", ref(x, 10)),
		fileNode(ref(x, 12), "mnt/x", ref(x, 11)),
	}
	for i := range inBatch - 1 {
		g := uuid.New(rnd)
		g[0] &= 0x7f
		bundles = append(bundles, fileNode(ref(g, 1), fmt.Sprintf("mnt/g%02d", i), ref(q, 1)))
	}
	s3, db := twinOfBundles(t, bundles)
	spec := Spec{Roots: Roots{Refs: []prov.Ref{ref(root, 1)}}, Direction: Descendants}
	want := stream(t, s3, spec)
	if len(want) != len(bundles)-1 {
		t.Fatalf("the store streamed %d descendants, want %d", len(want), len(bundles)-1)
	}
	// One round for the root, one for {q, x8}, two batches for the 21 refs,
	// the second padded with x11…x29: x11's and x12's levels ask nothing.
	before := selects(db.dep)
	if got := stream(t, db, spec); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("streams differ\n store %v\n    db %v", want, got)
	}
	if got := selects(db.dep) - before; got != 16 {
		t.Errorf("%d SELECTs, want 16", got)
	}
	db.SetCache(NewCache(0))
	if got := stream(t, db, spec); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("cached: streams differ\n store %v\n    db %v", want, got)
	}
	if got := asked(t, db.cache); !slices.Contains(got, ref(x, 29).String()) || slices.Contains(got, ref(x, 30).String()) {
		t.Errorf("the padded batch did not run x11…x29: %v", got)
	}
}

// TestReadaheadStopsAtMaxInt: a version chain that ends at math.MaxInt
// pads nothing past it — no overflowed, negative version is ever asked —
// and ParseSpec's root at that version walks like any other.
func TestReadaheadStopsAtMaxInt(t *testing.T) {
	rnd := sim.NewRand(47)
	x, y := uuid.New(rnd), uuid.New(rnd)
	top := prov.Ref{UUID: x, Version: math.MaxInt}
	below := func(k int) prov.Ref { return prov.Ref{UUID: x, Version: math.MaxInt - k} }
	leaf := prov.Ref{UUID: y, Version: 1}
	dep := versionRunDeployment(1, sim.Strict)
	putBundles(t, dep, []prov.Bundle{
		fileNode(below(2), "mnt/x"),
		fileNode(below(1), "mnt/x", below(2)),
		fileNode(top, "mnt/x", below(1)),
		fileNode(leaf, "mnt/y", top),
	})
	e := New(dep, core.BackendSDB)
	e.SetCache(NewCache(0))
	for _, tc := range []struct {
		root prov.Ref
		want string
	}{
		{below(2), fmt.Sprintf("[%s@1 %s@2 %s@3]", below(1), top, leaf)},
		{top, fmt.Sprintf("[%s@1]", leaf)},
	} {
		spec, err := ParseSpec([]string{"ref:" + tc.root.String(), "dir=descendants"})
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(stream(t, e, spec)); got != tc.want {
			t.Errorf("descendants of %s: %s, want %s", tc.root, got, tc.want)
		}
	}
	want := []string{below(2).String(), below(1).String(), top.String(), leaf.String()}
	slices.Sort(want)
	if got := asked(t, e.cache); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("the walks asked %v, want %v", got, want)
	}
}

// TestReadaheadWithinDepth: a bounded walk over one object's ten versions
// pads only as deep as it can still go, and its terminal level not at all.
// A v1 root has no earlier version, so its own round pads nothing and v2's
// round pads the rest; a v5 root pads its own round, which then answers the
// whole walk: v5…v(4+MaxDepth) in one round, v5 alone under MaxDepth 1.
func TestReadaheadWithinDepth(t *testing.T) {
	dep, chain := chainDeployment(t, 9, true)
	for _, root := range []int{0, 4} {
		for depth := 1; depth <= 4; depth++ {
			e := New(dep, core.BackendSDB)
			e.SetCache(NewCache(0))
			before := selects(dep)
			got := stream(t, e, Spec{Roots: Roots{Refs: chain[root : root+1]}, Direction: Descendants, MaxDepth: depth})
			var want, wantAsked []string
			for d := 1; d <= depth; d++ {
				want = append(want, fmt.Sprintf("%s@%d", chain[root+d], d))
				wantAsked = append(wantAsked, chain[root+d-1].String())
			}
			slices.Sort(wantAsked)
			name := fmt.Sprintf("from %s, MaxDepth %d", chain[root], depth)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s streamed %v, want %v", name, got, want)
			}
			if a := asked(t, e.cache); fmt.Sprint(a) != fmt.Sprint(wantAsked) {
				t.Errorf("%s asked %v, want %v", name, a, wantAsked)
			}
			rounds := 1
			if root == 0 {
				rounds = min(depth, 2)
			}
			if n := selects(dep) - before; n != int64(4*rounds) {
				t.Errorf("%s: %d SELECTs, want %d", name, n, 4*rounds)
			}
		}
	}
}

// TestReadaheadFromMidChainRoot: a walk from v5 of a ten-version chain,
// whose versions also feed side outputs, pads its roots' round with v6…v24.
// Whatever the pads answer early, the database streams what the store
// streams, with the cache off and on, unbounded and bounded, refs and
// filtered bundles alike.
func TestReadaheadFromMidChainRoot(t *testing.T) {
	rnd := sim.NewRand(53)
	ref := func(u uuid.UUID, v int) prov.Ref { return prov.Ref{UUID: u, Version: v} }
	x := uuid.New(rnd)
	bundles := []prov.Bundle{fileNode(ref(x, 1), "mnt/x")}
	for v := 2; v <= 10; v++ {
		bundles = append(bundles, fileNode(ref(x, v), "mnt/x", ref(x, v-1)))
	}
	for _, v := range []int{3, 7, 9} {
		side := ref(uuid.New(rnd), 1)
		bundles = append(bundles, fileNode(side, fmt.Sprintf("mnt/side%d", v), ref(x, v)),
			fileNode(ref(uuid.New(rnd), 1), fmt.Sprintf("mnt/side%d.out", v), side))
	}
	s3, db := twinOfBundles(t, bundles)
	root := Roots{Refs: []prov.Ref{ref(x, 5)}}
	for _, spec := range []Spec{
		{Roots: root, Direction: Descendants},
		{Roots: root, Direction: Descendants, MaxDepth: 2, Project: ProjectBundles},
		{Roots: root, Direction: Descendants, MaxDepth: 3, Filter: Not(NameIs("mnt/x"))},
	} {
		want := stream(t, s3, spec)
		for _, cache := range []*Cache{nil, NewCache(0)} {
			db.SetCache(cache)
			if got := stream(t, db, spec); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("depth %d, filter %s, cache %v: streams differ\n store %v\n    db %v", spec.MaxDepth, spec.Filter, cache != nil, want, got)
			}
		}
	}
	// Unbounded and uncached, the roots' round answers the chain, and only
	// the levels that hold a side output or its output ask: five rounds of
	// four SELECTs, where a root round without pads made it six.
	db.SetCache(nil)
	before := selects(db.dep)
	if got := stream(t, db, Spec{Roots: root, Direction: Descendants}); len(got) != 9 {
		t.Errorf("streamed %d descendants of v5, want 9: %v", len(got), got)
	}
	if n := selects(db.dep) - before; n != 20 {
		t.Errorf("%d SELECTs, want 20", n)
	}
}
