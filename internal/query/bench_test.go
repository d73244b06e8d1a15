package query

import (
	"testing"

	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// The micro-benchmarks run the four rooted directions end to end on the
// manual clock over the K=4 fixtures the request-count pins use, so
// allocs/op and B/op attribute the repository benchmark's query_mix
// alloc_bytes_per_op to this package: the shapes are query_mix's (ancestors
// with bundles from a leaf ref, versions of a uuid, a refs-only attribute
// find, unbounded descendants of a ref, the depth-1 Q3 fan), plus ancestors
// over one uuid's version run, the shape the padded fetch serves.
//
// With every SELECT drained into a pooled sdb.Result and a result decoded
// into one bundle slab and one record slab, B/op on a 2-core Xeon reads:
// Self 760 (1,512 while each drain copied its pages out), Versions 1,008
// (1,504), Ancestors/chain 12,433 (18,032), Ancestors/versions 9,366
// (12,163), Descendants/chain 4,793 (13,192), Descendants/versions 4,121
// (5,208), Descendants/fan 12,339 (20,722), fan/depth1 4,680 (8,153);
// fan/cached+subscribed, all cache hits, 12,246.

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
	dep, _ := chainDeployment(b, 10, false)
	roots := Roots{Attrs: []AttrMatch{{Attr: prov.AttrName, Value: "mnt/n05"}}}
	benchRun(b, New(dep, core.BackendSDB), Spec{Roots: roots, Direction: Self}, 1)
}

func BenchmarkRunVersions(b *testing.B) {
	dep, chain := chainDeployment(b, 10, false)
	roots := Roots{UUIDs: []uuid.UUID{chain[5].UUID}}
	benchRun(b, New(dep, core.BackendSDB), Spec{Roots: roots, Direction: Versions, Project: ProjectBundles}, 1)
}

func BenchmarkRunAncestors(b *testing.B) {
	b.Run("chain", func(b *testing.B) {
		dep, chain := chainDeployment(b, 10, false)
		roots := Roots{Refs: []prov.Ref{chain[10]}}
		benchRun(b, New(dep, core.BackendSDB), Spec{Roots: roots, Direction: Ancestors, Project: ProjectBundles}, 11)
	})
	// One uuid's ten versions and the process that wrote them: the levels
	// ride two padded SELECTs instead of eleven routed ones.
	b.Run("versions", func(b *testing.B) {
		bundles := versionRun(31, 10)
		dep := versionRunDeployment(1, sim.Strict)
		putBundles(b, dep, bundles)
		roots := Roots{Refs: []prov.Ref{bundles[10].Ref}}
		benchRun(b, New(dep, core.BackendSDB), Spec{Roots: roots, Direction: Ancestors, Project: ProjectBundles}, 11)
	})
}

func BenchmarkRunDescendants(b *testing.B) {
	k4 := core.Topology{WALShards: 4, DBShards: 4}
	b.Run("chain", func(b *testing.B) {
		dep, chain := chainDeployment(b, 10, false)
		roots := Roots{Refs: []prov.Ref{chain[0]}}
		benchRun(b, New(dep, core.BackendSDB), Spec{Roots: roots, Direction: Descendants}, 10)
	})
	// query_mix's descendants: from the middle of one object's ten
	// versions, where the root's own padded read answers the whole chain.
	b.Run("versions", func(b *testing.B) {
		dep, chain := chainDeployment(b, 9, true)
		roots := Roots{Refs: []prov.Ref{chain[4]}}
		benchRun(b, New(dep, core.BackendSDB), Spec{Roots: roots, Direction: Descendants}, 5)
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
