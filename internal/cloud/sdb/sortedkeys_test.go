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
// table, each attribute's value list, each postings list — and compares it
// with a from-scratch sort of the map it caches.
func checkCachedTables(t *testing.T, d *Domain, step int) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.names != nil {
		if got, want := d.sortedNamesLocked(), freshSort(d.items); !slices.Equal(got, want) {
			t.Fatalf("step %d: name table %v, want %v", step, got, want)
		}
	}
	for attr, ix := range d.idx {
		if ix.sorted != nil {
			if got, want := ix.orderedVals(), freshSort(ix.vals); !slices.Equal(got, want) {
				t.Fatalf("step %d: values of %s %v, want %v", step, attr, got, want)
			}
		}
		for v, p := range ix.vals {
			if p.sorted != nil {
				if got, want := p.names(), freshSort(p.refs); !slices.Equal(got, want) {
					t.Fatalf("step %d: postings of %s=%s %v, want %v", step, attr, v, got, want)
				}
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
	env := d.Env()
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
}
