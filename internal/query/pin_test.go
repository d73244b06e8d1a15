package query

import (
	"fmt"
	"testing"

	"passcloud/internal/core"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// billed renders one run's cost the way the pin tables spell it: result
// count, the billed requests of the four kinds a query can issue, and the
// bytes moved (which tell an itemName()-only SELECT from a full-item one).
func billed(n int, before, after sim.Usage) string {
	d := func(kind string) int64 { return after.OpsByKind[kind] - before.OpsByKind[kind] }
	bytes := (after.BytesIn + after.BytesOut) - (before.BytesIn + before.BytesOut)
	return fmt.Sprintf("n=%d sel=%d get=%d list=%d head=%d B=%d",
		n, d("sdb.Select"), d("s3.GET"), d("s3.LIST"), d("s3.HEAD"), bytes)
}

// pinBackends are the three deployments every pin row runs against: the
// miniBlast workload through P1 (queried on the store) and through P3 at
// K=1 and K=4 (queried on the database).
func pinBackends(t *testing.T) []pinBackend {
	dep, col, _ := miniBlast(t, backendsUnderTest()[0].mk)
	out := []pinBackend{{"S3", New(dep, core.BackendS3), col}}
	for _, k := range []int{1, 4} {
		dep, col := shardedBlast(t, k)
		out = append(out, pinBackend{fmt.Sprintf("SDB K=%d", k), New(dep, core.BackendSDB), col})
	}
	return out
}

type pinBackend struct {
	name string
	e    *Engine
	col  *pass.Collector
}

// TestPinnedPlanCosts pins, per (direction, root kind, projection) and per
// backend, how many results a spec streams and what it bills by request
// kind. Table 5 is the price difference between the two access paths, so a
// change to the executor must leave every cell alone: a cell that moves is
// either a planner change (say so, and re-pin) or a bug. The rooted object
// is mnt/work/raw1 — mid-chain, so both walks are non-empty.
func TestPinnedPlanCosts(t *testing.T) {
	const obj = "mnt/work/raw1"
	rootKinds := []struct {
		name  string
		roots func(ref prov.Ref) Roots
	}{
		{"path", func(prov.Ref) Roots { return Roots{Paths: []string{obj}} }},
		{"uuid", func(r prov.Ref) Roots { return Roots{UUIDs: []uuid.UUID{r.UUID}} }},
		{"ref", func(r prov.Ref) Roots { return Roots{Refs: []prov.Ref{r}} }},
		{"attr", func(prov.Ref) Roots { return Roots{Attrs: []AttrMatch{{Attr: prov.AttrName, Value: obj}}} }},
	}
	type row struct {
		name string
		spec func(ref prov.Ref) Spec
	}
	var rows []row
	for _, dir := range []Direction{Self, Versions, Ancestors, Descendants} {
		for _, rk := range rootKinds {
			for _, proj := range []Projection{ProjectRefs, ProjectBundles} {
				name := fmt.Sprintf("%s/%s/%s", dir, rk.name, []string{"refs", "bundles"}[proj])
				rows = append(rows, row{name, func(ref prov.Ref) Spec {
					return Spec{Roots: rk.roots(ref), Direction: dir, Project: proj}
				}})
			}
		}
	}
	ghost := prov.Ref{UUID: uuid.New(sim.NewRand(99)), Version: 1}
	rows = append(rows,
		row{"all/refs", func(prov.Ref) Spec { return Spec{Direction: All} }},
		row{"all/bundles", func(prov.Ref) Spec { return Spec{Direction: All, Project: ProjectBundles} }},
		row{"all/filter", func(prov.Ref) Spec { return Spec{Direction: All, Filter: TypeIs(prov.Process)} }},
		row{"q3", func(prov.Ref) Spec { return Q3Spec("blastall", nil, 4) }},
		row{"q3/filter", func(prov.Ref) Spec { return Q3Spec("blastall", TypeIs(prov.File), 4) }},
		row{"q4", func(prov.Ref) Spec { return Q4Spec("blastall", nil, 4) }},
		row{"q4/filter", func(prov.Ref) Spec { return Q4Spec("blastall", TypeIs(prov.File), 4) }},
		row{"self/attr/filter", func(prov.Ref) Spec {
			return Spec{Roots: procSpecRoots("blastall"), Direction: Self, Filter: TypeIs(prov.Process)}
		}},
		row{"ancestors/path/depth1", func(prov.Ref) Spec {
			return Spec{Roots: Roots{Paths: []string{obj}}, Direction: Ancestors, MaxDepth: 1}
		}},
		// Refs-only Self over a never-recorded explicit ref: the targeted
		// plan emits it on both backends...
		row{"self/ghost-ref/refs", func(prov.Ref) Spec {
			return Spec{Roots: Roots{Refs: []prov.Ref{ghost}}, Direction: Self}
		}},
		// ...and a uuid root beside it forces the store's scan.
		row{"self/ghost-ref+uuid/refs", func(r prov.Ref) Spec {
			return Spec{Roots: Roots{Refs: []prov.Ref{ghost}, UUIDs: []uuid.UUID{r.UUID}}, Direction: Self}
		}},
		row{"self/ghost-ref+uuid/bundles", func(r prov.Ref) Spec {
			return Spec{Roots: Roots{Refs: []prov.Ref{ghost}, UUIDs: []uuid.UUID{r.UUID}}, Direction: Self, Project: ProjectBundles}
		}},
	)

	// want[row] = {S3, SDB K=1, SDB K=4}.
	want := map[string][3]string{
		"self/path/refs":              {"n=1 sel=0 get=0 list=0 head=1 B=0", "n=1 sel=0 get=0 list=0 head=1 B=0", "n=1 sel=0 get=0 list=0 head=1 B=0"},
		"self/path/bundles":           {"n=1 sel=0 get=13 list=1 head=1 B=2677", "n=1 sel=1 get=0 list=0 head=1 B=130", "n=1 sel=1 get=0 list=0 head=1 B=130"},
		"self/uuid/refs":              {"n=1 sel=0 get=13 list=1 head=0 B=2677", "n=1 sel=1 get=0 list=0 head=0 B=130", "n=1 sel=1 get=0 list=0 head=0 B=130"},
		"self/uuid/bundles":           {"n=1 sel=0 get=13 list=1 head=0 B=2677", "n=1 sel=1 get=0 list=0 head=0 B=130", "n=1 sel=1 get=0 list=0 head=0 B=130"},
		"self/ref/refs":               {"n=1 sel=0 get=0 list=0 head=0 B=0", "n=1 sel=0 get=0 list=0 head=0 B=0", "n=1 sel=0 get=0 list=0 head=0 B=0"},
		"self/ref/bundles":            {"n=1 sel=0 get=13 list=1 head=0 B=2677", "n=1 sel=1 get=0 list=0 head=0 B=130", "n=1 sel=1 get=0 list=0 head=0 B=130"},
		"self/attr/refs":              {"n=1 sel=0 get=13 list=1 head=0 B=2677", "n=1 sel=1 get=0 list=0 head=0 B=38", "n=1 sel=4 get=0 list=0 head=0 B=38"},
		"self/attr/bundles":           {"n=1 sel=0 get=13 list=1 head=0 B=2677", "n=1 sel=2 get=0 list=0 head=0 B=168", "n=1 sel=5 get=0 list=0 head=0 B=168"},
		"versions/path/refs":          {"n=1 sel=0 get=1 list=0 head=1 B=90", "n=1 sel=1 get=0 list=0 head=1 B=130", "n=1 sel=1 get=0 list=0 head=1 B=130"},
		"versions/path/bundles":       {"n=1 sel=0 get=1 list=0 head=1 B=90", "n=1 sel=1 get=0 list=0 head=1 B=130", "n=1 sel=1 get=0 list=0 head=1 B=130"},
		"versions/uuid/refs":          {"n=1 sel=0 get=1 list=0 head=0 B=90", "n=1 sel=1 get=0 list=0 head=0 B=130", "n=1 sel=1 get=0 list=0 head=0 B=130"},
		"versions/uuid/bundles":       {"n=1 sel=0 get=1 list=0 head=0 B=90", "n=1 sel=1 get=0 list=0 head=0 B=130", "n=1 sel=1 get=0 list=0 head=0 B=130"},
		"versions/ref/refs":           {"n=1 sel=0 get=1 list=0 head=0 B=90", "n=1 sel=1 get=0 list=0 head=0 B=130", "n=1 sel=1 get=0 list=0 head=0 B=130"},
		"versions/ref/bundles":        {"n=1 sel=0 get=1 list=0 head=0 B=90", "n=1 sel=1 get=0 list=0 head=0 B=130", "n=1 sel=1 get=0 list=0 head=0 B=130"},
		"versions/attr/refs":          {"n=1 sel=0 get=13 list=1 head=0 B=2677", "n=1 sel=2 get=0 list=0 head=0 B=168", "n=1 sel=5 get=0 list=0 head=0 B=168"},
		"versions/attr/bundles":       {"n=1 sel=0 get=13 list=1 head=0 B=2677", "n=1 sel=2 get=0 list=0 head=0 B=168", "n=1 sel=5 get=0 list=0 head=0 B=168"},
		"ancestors/path/refs":         {"n=3 sel=0 get=13 list=1 head=1 B=2677", "n=3 sel=3 get=0 list=0 head=1 B=384", "n=3 sel=3 get=0 list=0 head=1 B=384"},
		"ancestors/path/bundles":      {"n=3 sel=0 get=13 list=1 head=1 B=2677", "n=3 sel=3 get=0 list=0 head=1 B=384", "n=3 sel=3 get=0 list=0 head=1 B=384"},
		"ancestors/uuid/refs":         {"n=3 sel=0 get=13 list=1 head=0 B=2677", "n=3 sel=3 get=0 list=0 head=0 B=384", "n=3 sel=3 get=0 list=0 head=0 B=384"},
		"ancestors/uuid/bundles":      {"n=3 sel=0 get=13 list=1 head=0 B=2677", "n=3 sel=3 get=0 list=0 head=0 B=384", "n=3 sel=3 get=0 list=0 head=0 B=384"},
		"ancestors/ref/refs":          {"n=3 sel=0 get=13 list=1 head=0 B=2677", "n=3 sel=3 get=0 list=0 head=0 B=384", "n=3 sel=3 get=0 list=0 head=0 B=384"},
		"ancestors/ref/bundles":       {"n=3 sel=0 get=13 list=1 head=0 B=2677", "n=3 sel=3 get=0 list=0 head=0 B=384", "n=3 sel=3 get=0 list=0 head=0 B=384"},
		"ancestors/attr/refs":         {"n=3 sel=0 get=13 list=1 head=0 B=2677", "n=3 sel=4 get=0 list=0 head=0 B=422", "n=3 sel=7 get=0 list=0 head=0 B=422"},
		"ancestors/attr/bundles":      {"n=3 sel=0 get=13 list=1 head=0 B=2677", "n=3 sel=4 get=0 list=0 head=0 B=422", "n=3 sel=7 get=0 list=0 head=0 B=422"},
		"descendants/path/refs":       {"n=2 sel=0 get=13 list=1 head=1 B=2677", "n=2 sel=3 get=0 list=0 head=1 B=76", "n=2 sel=12 get=0 list=0 head=1 B=76"},
		"descendants/path/bundles":    {"n=2 sel=0 get=13 list=1 head=1 B=2677", "n=2 sel=3 get=0 list=0 head=1 B=309", "n=2 sel=12 get=0 list=0 head=1 B=309"},
		"descendants/uuid/refs":       {"n=2 sel=0 get=13 list=1 head=0 B=2677", "n=2 sel=4 get=0 list=0 head=0 B=206", "n=2 sel=13 get=0 list=0 head=0 B=206"},
		"descendants/uuid/bundles":    {"n=2 sel=0 get=13 list=1 head=0 B=2677", "n=2 sel=4 get=0 list=0 head=0 B=439", "n=2 sel=13 get=0 list=0 head=0 B=439"},
		"descendants/ref/refs":        {"n=2 sel=0 get=13 list=1 head=0 B=2677", "n=2 sel=3 get=0 list=0 head=0 B=76", "n=2 sel=12 get=0 list=0 head=0 B=76"},
		"descendants/ref/bundles":     {"n=2 sel=0 get=13 list=1 head=0 B=2677", "n=2 sel=3 get=0 list=0 head=0 B=309", "n=2 sel=12 get=0 list=0 head=0 B=309"},
		"descendants/attr/refs":       {"n=2 sel=0 get=13 list=1 head=0 B=2677", "n=2 sel=4 get=0 list=0 head=0 B=114", "n=2 sel=16 get=0 list=0 head=0 B=114"},
		"descendants/attr/bundles":    {"n=2 sel=0 get=13 list=1 head=0 B=2677", "n=2 sel=4 get=0 list=0 head=0 B=347", "n=2 sel=16 get=0 list=0 head=0 B=347"},
		"all/refs":                    {"n=13 sel=0 get=13 list=1 head=0 B=2677", "n=13 sel=1 get=0 list=0 head=0 B=494", "n=13 sel=4 get=0 list=0 head=0 B=494"},
		"all/bundles":                 {"n=13 sel=0 get=13 list=1 head=0 B=2677", "n=13 sel=1 get=0 list=0 head=0 B=1929", "n=13 sel=4 get=0 list=0 head=0 B=1929"},
		"all/filter":                  {"n=6 sel=0 get=13 list=1 head=0 B=2677", "n=6 sel=1 get=0 list=0 head=0 B=1074", "n=6 sel=4 get=0 list=0 head=0 B=1074"},
		"q3":                          {"n=3 sel=0 get=13 list=1 head=0 B=2677", "n=3 sel=2 get=0 list=0 head=0 B=228", "n=3 sel=8 get=0 list=0 head=0 B=228"},
		"q3/filter":                   {"n=3 sel=0 get=13 list=1 head=0 B=2677", "n=3 sel=2 get=0 list=0 head=0 B=504", "n=3 sel=8 get=0 list=0 head=0 B=504"},
		"q4":                          {"n=9 sel=0 get=13 list=1 head=0 B=2677", "n=9 sel=5 get=0 list=0 head=0 B=456", "n=9 sel=20 get=0 list=0 head=0 B=456"},
		"q4/filter":                   {"n=6 sel=0 get=13 list=1 head=0 B=2677", "n=6 sel=5 get=0 list=0 head=0 B=1431", "n=6 sel=20 get=0 list=0 head=0 B=1431"},
		"self/attr/filter":            {"n=3 sel=0 get=13 list=1 head=0 B=2677", "n=3 sel=1 get=0 list=0 head=0 B=537", "n=3 sel=4 get=0 list=0 head=0 B=537"},
		"ancestors/path/depth1":       {"n=2 sel=0 get=13 list=1 head=1 B=2677", "n=2 sel=2 get=0 list=0 head=1 B=309", "n=2 sel=2 get=0 list=0 head=1 B=309"},
		"self/ghost-ref/refs":         {"n=1 sel=0 get=0 list=0 head=0 B=0", "n=1 sel=0 get=0 list=0 head=0 B=0", "n=1 sel=0 get=0 list=0 head=0 B=0"},
		"self/ghost-ref+uuid/refs":    {"n=2 sel=0 get=13 list=1 head=0 B=2677", "n=2 sel=1 get=0 list=0 head=0 B=130", "n=2 sel=1 get=0 list=0 head=0 B=130"},
		"self/ghost-ref+uuid/bundles": {"n=1 sel=0 get=13 list=1 head=0 B=2677", "n=1 sel=2 get=0 list=0 head=0 B=130", "n=1 sel=2 get=0 list=0 head=0 B=130"},
	}

	backends := pinBackends(t)
	for _, r := range rows {
		var got [3]string
		for i, b := range backends {
			ref, ok := b.col.FileRef(obj)
			if !ok {
				t.Fatalf("%s: collector lost %s", b.name, obj)
			}
			meter := b.e.dep.Env.Meter()
			before := meter.Usage()
			res, err := b.e.Collect(r.spec(ref))
			if err != nil {
				t.Fatalf("%s on %s: %v", r.name, b.name, err)
			}
			got[i] = billed(len(res), before, meter.Usage())
		}
		if got != want[r.name] {
			t.Errorf("cell moved; got\n\t\t%q: {%q, %q, %q},\nwant\t%q", r.name, got[0], got[1], got[2], want[r.name])
		}
	}
}

// TestPinnedTable5Cells pins Q1–Q4's Table-5 request and byte counts on the
// fixture the Q tests build, per backend — the cells themselves, where the
// Q tests only bound them ("Q2 ops 2-4", "SimpleDB beats S3").
func TestPinnedTable5Cells(t *testing.T) {
	want := map[string][4]Metrics{
		"S3":       {{Ops: 14, Bytes: 2677}, {Ops: 2, Bytes: 90}, {Ops: 14, Bytes: 2677}, {Ops: 14, Bytes: 2677}},
		"SimpleDB": {{Ops: 1, Bytes: 1929}, {Ops: 2, Bytes: 130}, {Ops: 2, Bytes: 228}, {Ops: 5, Bytes: 456}},
	}
	for _, tc := range backendsUnderTest() {
		dep, _, _ := miniBlast(t, tc.mk)
		e := New(dep, tc.backend)
		var got [4]Metrics
		var err [4]error
		_, got[0], err[0] = e.AllProvenance(4)
		_, got[1], err[1] = e.ObjectProvenance("mnt/out/hits1")
		_, got[2], err[2] = e.DirectOutputsOf("blastall", 4)
		_, got[3], err[3] = e.DescendantsOf("blastall", 4)
		for q := range got {
			if err[q] != nil {
				t.Fatalf("%s Q%d: %v", tc.name, q+1, err[q])
			}
			got[q].Elapsed = 0 // virtual time of parallel stages depends on interleaving
			if got[q] != want[tc.name][q] {
				t.Errorf("%s Q%d: {Ops: %d, Bytes: %d}, want {Ops: %d, Bytes: %d}", tc.name, q+1,
					got[q].Ops, got[q].Bytes, want[tc.name][q].Ops, want[tc.name][q].Bytes)
			}
		}
	}
}
