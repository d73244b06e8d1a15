package query

import (
	"fmt"
	"testing"

	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// examined reads the billed SELECT-scan candidate count.
func examined(dep *core.Deployment) int64 {
	return dep.Env.Meter().Usage().ItemsExamined
}

// randomFilter grows a random predicate tree of the given depth over the
// fan corpus's vocabulary — real names, bogus names, both types, attribute
// equalities the lowering can and cannot push — so the fuzz walks every
// lowerFilter branch: full pushes, split conjunctions, and trees that are
// entirely residue (or/not).
func randomFilter(rnd *sim.Rand, depth int) *Filter {
	if depth <= 0 || rnd.Intn(3) == 0 {
		switch rnd.Intn(3) {
		case 0:
			if rnd.Bool(0.5) {
				return TypeIs(prov.File)
			}
			return TypeIs(prov.Process)
		case 1:
			names := []string{"prog", "mnt/c000", "mnt/c003", "mnt/g007", "mnt/nope", ""}
			return NameIs(names[rnd.Intn(len(names))])
		default:
			attrs := [][2]string{
				{prov.AttrType, "file"},
				{prov.AttrType, "proc"},
				{prov.AttrName, "mnt/c001"},
				{prov.AttrName, "absent"},
				{"bogus", "x"},
			}
			a := attrs[rnd.Intn(len(attrs))]
			return AttrEq(a[0], a[1])
		}
	}
	switch rnd.Intn(3) {
	case 0:
		return And(randomFilter(rnd, depth-1), randomFilter(rnd, depth-1))
	case 1:
		return Or(randomFilter(rnd, depth-1), randomFilter(rnd, depth-1))
	default:
		return Not(randomFilter(rnd, depth-1))
	}
}

// TestPushdownClientEquivalenceFuzz is the pushdown acceptance fuzz: for a
// seeded stream of random filter trees crossed with every plan shape the
// lowering touches, the result stream with pushdown on must be
// byte-identical to the ship-everything-filter-client-side plan, and the
// pushed plan must never examine more items (strictly fewer somewhere, or
// the lowering is dead code).
func TestPushdownClientEquivalenceFuzz(t *testing.T) {
	dep, _ := fanDeployment(t, 12, core.Topology{WALShards: 2, DBShards: 2})
	e := New(dep, core.BackendSDB)
	rnd := sim.NewRand(41)
	shapes := []Spec{
		{Direction: All, Project: ProjectBundles},
		{Direction: All},
		{Roots: procSpecRoots("prog"), Direction: Descendants, MaxDepth: 1, Workers: 2},
		{Roots: procSpecRoots("prog"), Direction: Descendants, MaxDepth: 2, Project: ProjectBundles, Workers: 2},
		{Roots: procSpecRoots("prog"), Direction: Descendants, Workers: 2},
		{Roots: procSpecRoots("prog"), Direction: Self},
		{Roots: procSpecRoots("prog"), Direction: Self, Project: ProjectBundles},
	}
	strict := 0
	for i := 0; i < 70; i++ {
		spec := shapes[i%len(shapes)]
		spec.Filter = randomFilter(rnd, 3)

		e.SetPushdown(true)
		base := examined(dep)
		on := specDigest(t, e, spec)
		exOn := examined(dep) - base

		e.SetPushdown(false)
		base = examined(dep)
		off := specDigest(t, e, spec)
		exOff := examined(dep) - base

		if on != off {
			t.Errorf("case %d (%s): pushdown changed the result stream", i, spec.Direction)
		}
		if exOn > exOff {
			t.Errorf("case %d (%s): pushdown examined MORE items: %d on vs %d off",
				i, spec.Direction, exOn, exOff)
		}
		if exOn < exOff {
			strict++
		}
	}
	if strict == 0 {
		t.Error("no fuzz case reduced items examined — lowering never engaged")
	}
	t.Logf("%d/70 cases examined strictly fewer items under pushdown", strict)
}

// TestPushdownMonotoneAcrossShards repeats a selective conjunctive probe on
// K=1 and K=4 fabrics: the examined reduction must survive scatter-gather
// (each shard prunes locally) and the digests must stay identical to the
// client-filtered plan on both topologies.
func TestPushdownMonotoneAcrossShards(t *testing.T) {
	filter := And(TypeIs(prov.File), NameIs("mnt/out/hits1"))
	for _, k := range []int{1, 4} {
		dep, _ := shardedBlast(t, k)
		e := New(dep, core.BackendSDB)
		spec := Q3Spec("blastall", filter, 4)

		base := examined(dep)
		on := specDigest(t, e, spec)
		exOn := examined(dep) - base

		e.SetPushdown(false)
		base = examined(dep)
		off := specDigest(t, e, spec)
		exOff := examined(dep) - base

		if on != off {
			t.Errorf("K=%d: pushdown changed the Q3 stream", k)
		}
		if exOn >= exOff {
			t.Errorf("K=%d: pushed Q3 examined %d items, client plan %d — no reduction", k, exOn, exOff)
		}
	}
}

// TestPushdownBoundedReadahead: on one object's version chain, the terminal
// level of a MaxDepth 3 walk is answered by the padded read of level 2,
// which no predicate narrowed. Those nodes owe the whole filter, not the
// residue, so the stream with pushdown on equals the stream with it off.
func TestPushdownBoundedReadahead(t *testing.T) {
	dep, chain := chainDeployment(t, 9, true)
	e := New(dep, core.BackendSDB)
	for _, tc := range []struct {
		filter *Filter
		want   int
	}{
		{TypeIs(prov.File), 3},
		{TypeIs(prov.Process), 0},
		{And(TypeIs(prov.File), NameIs("mnt/n03")), 1},
	} {
		for _, proj := range []Projection{ProjectRefs, ProjectBundles} {
			spec := Spec{Roots: Roots{Refs: chain[:1]}, Direction: Descendants, MaxDepth: 3, Filter: tc.filter, Project: proj}
			e.SetPushdown(true)
			before := selects(dep)
			on := stream(t, e, spec)
			if n := selects(dep) - before; n != 8 {
				t.Errorf("%s: %d SELECTs, want 8 (the walk's levels 2 and 3 ride one padded read)", tc.filter, n)
			}
			e.SetPushdown(false)
			off := stream(t, e, spec)
			if fmt.Sprint(on) != fmt.Sprint(off) || len(on) != tc.want {
				t.Errorf("%s: pushdown on streamed %v, off %v; want %d results", tc.filter, on, off, tc.want)
			}
		}
	}
}
