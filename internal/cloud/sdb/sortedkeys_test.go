package sdb

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"passcloud/internal/sim"
)

// freshSort is what a cached table must equal: m's keys, sorted from scratch.
func freshSort[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkCachedTables reads every table the domain has cached — the name
// table and each attribute's value list — and compares it with a
// from-scratch sort of the map it caches. It then rebuilds the index from
// the retained versions and checks that every (attribute, value) resolves to
// exactly the rebuilt names, with the rebuilt distinct count, through
// ascending id postings.
func checkCachedTables(t *testing.T, d *Domain, step int) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.names != nil {
		if got, want := d.sortedNamesLocked(), freshSort(d.ids); !slices.Equal(got, want) {
			t.Fatalf("step %d: name table %v, want %v", step, got, want)
		}
	}
	rebuilt := make(map[string]map[string]map[string]bool) // attr → value → names
	live := 0
	for i := range d.recs {
		r := &d.recs[i]
		for j := range r.hist[:r.n] {
			live += int(r.hist[j].n)
		}
	}
	if live+d.dead != len(d.pairs) {
		t.Fatalf("step %d: slab of %d pairs holds %d live and counts %d dead", step, len(d.pairs), live, d.dead)
	}
	for name, id := range d.ids {
		if d.nameOf[id] != name {
			t.Fatalf("step %d: id %d names %q, the item table says %q", step, id, d.nameOf[id], name)
		}
		r := &d.recs[id]
		for i := range r.hist[:r.n] {
			for _, a := range d.appendAttrs(nil, &r.hist[i]) {
				if rebuilt[a.Name] == nil {
					rebuilt[a.Name] = make(map[string]map[string]bool)
				}
				if rebuilt[a.Name][a.Value] == nil {
					rebuilt[a.Name][a.Value] = make(map[string]bool)
				}
				rebuilt[a.Name][a.Value][name] = true
			}
		}
	}
	for attr, ix := range d.idx {
		if ix.sorted != nil {
			if got, want := ix.orderedVals(), freshSort(ix.vals); !slices.Equal(got, want) {
				t.Fatalf("step %d: values of %s %v, want %v", step, attr, got, want)
			}
		}
		if len(ix.vals) != len(rebuilt[attr]) {
			t.Fatalf("step %d: %s indexes %d values, the retained versions hold %d", step, attr, len(ix.vals), len(rebuilt[attr]))
		}
		for v, want := range rebuilt[attr] {
			p := ix.lookup(v)
			if p == nil {
				t.Fatalf("step %d: %s=%s is held but not indexed", step, attr, v)
			}
			if !slices.IsSorted(p.ids) {
				t.Fatalf("step %d: postings of %s=%s not ascending: %v", step, attr, v, p.ids)
			}
			got := slices.Sorted(slices.Values(d.collectPostingsLocked(p, nil)))
			if n := len(slices.Compact(slices.Clone(got))); n != len(got) {
				t.Fatalf("step %d: postings of %s=%s collected a name twice: %v", step, attr, v, got)
			}
			if w := freshSort(want); !slices.Equal(got, w) || p.distinct != len(w) {
				t.Fatalf("step %d: postings of %s=%s %v (distinct %d), want %v", step, attr, v, got, p.distinct, w)
			}
		}
	}
}

// TestCachedTablesSurviveWrites drives one domain through a seeded random
// interleaving of batch puts (new names, replacements that drop values from
// the index, resurrections), batch deletes, reaps and SELECTs over every
// access path. The tables a SELECT cached are kept across the writes that
// follow it, and whenever one is read it equals a from-scratch sort. The
// check itself reads the tables, so it runs after every SELECT and now and
// then between writes, leaving runs of writes to pile up unmerged.
func TestCachedTablesSurviveWrites(t *testing.T) {
	d := New(sim.NewEnv(sim.DefaultConfig()), "prov") // eventual: tombstones reap later
	env := d.env
	rnd := sim.NewRand(7)
	name := func() string { return fmt.Sprintf("u%03d_%d", rnd.Intn(400), rnd.Intn(3)) }
	value := func() string { return fmt.Sprintf("v%02d", rnd.Intn(40)) }

	// Writes before the first read cache nothing.
	for i := 0; i < 20; i++ {
		if err := d.PutAttributes(PutRequest{Item: name(), Attrs: []Attr{{Name: "a", Value: value()}}, Replace: true}); err != nil {
			t.Fatal(err)
		}
	}
	if d.names != nil || d.idx["a"].sorted != nil {
		t.Fatal("a write built a sorted table nothing had read")
	}

	selects := []string{
		"select itemName() from prov",
		"select itemName() from prov where itemName() like 'u1%'",
		"select itemName() from prov where itemName() > 'u2'",
		"select itemName() from prov where a = 'v07'",
		"select itemName() from prov where a like 'v1%'",
		"select itemName() from prov where b >= 'v30' or a < 'v05'",
	}
	for step := 0; step < 3000; step++ {
		switch op := rnd.Intn(10); {
		case op < 5:
			batch := make([]PutRequest, 1+rnd.Intn(MaxBatchItems))
			for i := range batch {
				batch[i] = PutRequest{Item: name(), Attrs: []Attr{{Name: "a", Value: value()}, {Name: "b", Value: value()}}, Replace: rnd.Bool(0.7)}
			}
			if err := d.BatchPutAttributes(batch); err != nil {
				t.Fatal(err)
			}
		case op < 7:
			names := make([]string, 1+rnd.Intn(MaxBatchItems))
			for i := range names {
				names[i] = name()
			}
			if err := d.BatchDeleteAttributes(names); err != nil {
				t.Fatal(err)
			}
		case op < 8:
			env.Clock().Advance(time.Duration(rnd.Intn(20)) * time.Second) // the next write or read reaps
		default:
			if _, _, _, err := d.SelectAll(selects[rnd.Intn(len(selects))]); err != nil {
				t.Fatal(err)
			}
			checkCachedTables(t, d, step)
		}
		if rnd.Bool(0.05) {
			checkCachedTables(t, d, step)
		}
	}
	if d.names == nil || d.idx["a"].sorted == nil {
		t.Fatal("the interleaving never cached the tables it was meant to check")
	}

	// Reap everything, then put again: the new names take the reaped ids
	// instead of growing the record table, and index like any other.
	for batch := range slices.Chunk(freshSort(d.ids), MaxBatchItems) {
		if err := d.BatchDeleteAttributes(batch); err != nil {
			t.Fatal(err)
		}
	}
	env.Clock().Advance(time.Minute)
	if got, _, _, err := d.SelectAll(selects[0]); err != nil || len(got) != 0 {
		t.Fatalf("after reaping every item: %d items, err=%v", len(got), err)
	}
	checkCachedTables(t, d, -1)
	slots := len(d.recs)
	if len(d.ids) != 0 || len(d.free) != slots {
		t.Fatalf("after reaping every item: %d held, %d of %d ids free", len(d.ids), len(d.free), slots)
	}
	reput := make([]PutRequest, MaxBatchItems)
	for i := range reput {
		reput[i] = PutRequest{Item: fmt.Sprintf("w%02d", i), Attrs: []Attr{{Name: "a", Value: "v07"}, {Name: "a", Value: "v07"}}}
	}
	if err := d.BatchPutAttributes(reput); err != nil {
		t.Fatal(err)
	}
	env.Clock().Advance(time.Minute)
	if got, _, _, err := d.SelectAll(selects[3]); err != nil || len(got) != len(reput) {
		t.Fatalf("re-put items by index: %d, err=%v; want %d", len(got), err, len(reput))
	}
	checkCachedTables(t, d, -2)
	if len(d.recs) != slots || len(d.free) != slots-len(reput) {
		t.Fatalf("re-put grew the record table to %d (was %d), %d ids free", len(d.recs), slots, len(d.free))
	}
}
