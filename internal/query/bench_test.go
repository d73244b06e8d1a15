package query

import (
	"testing"

	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/uuid"
)

// The micro-benchmarks run the four rooted directions end to end on the
// manual clock over the K=4 fixtures the request-count pins use, so
// allocs/op and B/op attribute the repository benchmark's query_mix
// alloc_bytes_per_op to this package: the shapes are query_mix's (ancestors
// with bundles from a leaf ref, versions of a uuid, a refs-only attribute
// find, unbounded descendants of a ref, the depth-1 Q3 fan).

func benchRun(b *testing.B, e *Engine, spec Spec, want int) {
	b.Helper()
	b.ReportAllocs()
	for b.Loop() {
		n := 0
		for _, err := range e.Run(spec) {
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != want {
			b.Fatalf("%d results, want %d", n, want)
		}
	}
}

func BenchmarkRunSelf(b *testing.B) {
	dep, _ := chainDeployment(b, 10)
	roots := Roots{Attrs: []AttrMatch{{Attr: prov.AttrName, Value: "mnt/n05"}}}
	benchRun(b, New(dep, core.BackendSDB), Spec{Roots: roots, Direction: Self}, 1)
}

func BenchmarkRunVersions(b *testing.B) {
	dep, chain := chainDeployment(b, 10)
	roots := Roots{UUIDs: []uuid.UUID{chain[5].UUID}}
	benchRun(b, New(dep, core.BackendSDB), Spec{Roots: roots, Direction: Versions, Project: ProjectBundles}, 1)
}

func BenchmarkRunAncestors(b *testing.B) {
	dep, chain := chainDeployment(b, 10)
	roots := Roots{Refs: []prov.Ref{chain[10]}}
	benchRun(b, New(dep, core.BackendSDB), Spec{Roots: roots, Direction: Ancestors, Project: ProjectBundles}, 11)
}

func BenchmarkRunDescendants(b *testing.B) {
	k4 := core.Topology{WALShards: 4, DBShards: 4}
	b.Run("chain", func(b *testing.B) {
		dep, chain := chainDeployment(b, 10)
		roots := Roots{Refs: []prov.Ref{chain[0]}}
		benchRun(b, New(dep, core.BackendSDB), Spec{Roots: roots, Direction: Descendants}, 10)
	})
	b.Run("fan", func(b *testing.B) {
		dep, _ := fanDeployment(b, 24, k4)
		benchRun(b, New(dep, core.BackendSDB), progSpec(), 48)
	})
	b.Run("fan/depth1", func(b *testing.B) {
		dep, _ := fanDeployment(b, 24, k4)
		spec := progSpec()
		spec.MaxDepth = 1
		benchRun(b, New(dep, core.BackendSDB), spec, 24)
	})
	b.Run("fan/cached+subscribed", func(b *testing.B) {
		dep, _ := fanDeployment(b, 24, k4)
		e := New(dep, core.BackendSDB)
		e.SetCache(NewCache(0))
		if err := e.Subscribe(); err != nil {
			b.Fatal(err)
		}
		defer e.Unsubscribe()
		benchRun(b, e, progSpec(), 48)
	})
}
