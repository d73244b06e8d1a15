package query

import (
	"fmt"
	"strings"
	"testing"

	"passcloud/internal/core"
	"passcloud/internal/prov"
)

// TestReturnedResultsOutliveBufferReuse: the database source decodes every
// SELECT drain out of a pooled buffer and hands the buffer back, zeroed,
// before Run returns. What one Run returned — refs, depths, bundles and
// their records, the children of IN-batched levels — must read the same
// after fifty later runs have reused those buffers; an alias into one would
// read zeroed strings or another query's items. The fabric is K=4 and the
// specs run on four workers, so a level's IN batches drain concurrently
// (run it under -race too). A cached engine's first results, which its
// cache keeps, are checked beside the uncached engine's.
func TestReturnedResultsOutliveBufferReuse(t *testing.T) {
	dep, _ := fanDeployment(t, 24, core.Topology{WALShards: 4, DBShards: 4})
	byName := func(name string) Roots { return Roots{Attrs: []AttrMatch{{Attr: prov.AttrName, Value: name}}} }
	specs := []struct {
		spec Spec
		want int
	}{
		{Spec{Roots: procSpecRoots("prog"), Direction: Descendants, Workers: 4, Project: ProjectBundles}, 48},
		{progSpec(), 48},
		{Spec{Roots: procSpecRoots("prog"), Direction: Descendants, Workers: 4, MaxDepth: 1, Filter: NameIs("mnt/c007")}, 1},
		{Spec{Roots: byName("mnt/g007"), Direction: Ancestors, Workers: 4, Project: ProjectBundles}, 3},
		{Spec{Roots: byName("mnt/c011"), Direction: Versions, Project: ProjectBundles}, 1},
		{Spec{Roots: byName("mnt/g013"), Direction: Self, Project: ProjectBundles}, 1},
	}
	render := func(rs []Result) string {
		var b strings.Builder
		for _, r := range rs {
			fmt.Fprintf(&b, "%s@%d", r.Ref, r.Depth)
			if r.Bundle != nil {
				b.Write(prov.EncodeBundles([]prov.Bundle{*r.Bundle}))
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	cached := New(dep, core.BackendSDB)
	cached.SetCache(NewCache(0))
	engines := []*Engine{New(dep, core.BackendSDB), cached}
	kept := make([][]Result, len(engines)*len(specs))
	want := make([]string, len(kept))
	for i := range kept {
		e, s := engines[i/len(specs)], specs[i%len(specs)]
		rs, err := e.Collect(s.spec)
		if err != nil || len(rs) != s.want {
			t.Fatalf("spec %d: %d results, err %v; want %d", i%len(specs), len(rs), err, s.want)
		}
		kept[i], want[i] = rs, render(rs)
	}
	for run := 0; run < 50; run++ {
		for _, s := range specs {
			if rs, err := engines[0].Collect(s.spec); err != nil || len(rs) != s.want {
				t.Fatalf("run %d: %d results, err %v; want %d", run, len(rs), err, s.want)
			}
		}
	}
	for i := range kept {
		if got := render(kept[i]); got != want[i] {
			t.Errorf("engine %d, spec %d: results changed after the buffers were reused\n got %q\nwant %q", i/len(specs), i%len(specs), got, want[i])
		}
	}
}
