package sdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// deepCopy copies items, bytes and all.
func deepCopy(items []Item) []Item {
	out := make([]Item, len(items))
	for i, it := range items {
		out[i].Name = strings.Clone(it.Name)
		for _, a := range it.Attrs {
			out[i].Attrs = append(out[i].Attrs, Attr{strings.Clone(a.Name), strings.Clone(a.Value)})
		}
	}
	return out
}

// TestPagedSlabKeepsSpansAndOrder drives one domain's pair slab across
// several pages with replace and append puts of 1 to 150 attributes (and one
// of more than a page), deletes, reaps and compactions, against a model of
// each item's attributes in order. After every round no retained version's
// span crosses a page (one longer than a page starts a run of its own), the
// slab counts its skipped page tails as dead, every item reads back in the
// model's attribute order through GetAttributes and SELECT, and the results
// held since the first rounds are byte-identical to what they were.
func TestPagedSlabKeepsSpansAndOrder(t *testing.T) {
	d := strictDomain(t) // strict: a delete is reaped by the next write
	rnd := rand.New(rand.NewSource(48))
	model := map[string][]Attr{}
	attrs := func(n int) []Attr {
		out := make([]Attr, n)
		for i := range out {
			out[i] = Attr{Name: fmt.Sprint("a", rnd.Intn(12)), Value: fmt.Sprint("v", rnd.Intn(400))}
		}
		return out
	}
	var heldItems [][]Item
	var wantItems [][]Item
	maxPages, compactions, padded := 0, 0, 0
	for round := range 30 {
		for range 25 {
			name := fmt.Sprintf("%04d_1", rnd.Intn(200))
			n := 1 + rnd.Intn(150)
			if round == 7 {
				n = pageLen + 500
			}
			req := PutRequest{Item: name, Attrs: attrs(n), Replace: rnd.Intn(3) > 0}
			want := slices.Clone(req.Attrs)
			if base := model[name]; req.Replace {
				want = append(slices.DeleteFunc(slices.Clone(base), func(b Attr) bool {
					return slices.ContainsFunc(req.Attrs, func(a Attr) bool { return a.Name == b.Name })
				}), want...)
			} else {
				want = append(slices.Clone(base), want...)
			}
			before := d.pairs.n
			if err := d.PutAttributes(req); err != nil {
				t.Fatal(err)
			}
			if d.pairs.n < before { // compacted: what is dead now is skipped page tails
				compactions, padded = compactions+1, max(padded, d.dead)
			}
			model[name] = want
		}
		var gone []string
		for range 5 {
			name := fmt.Sprintf("%04d_1", rnd.Intn(200))
			gone = append(gone, name)
			delete(model, name)
		}
		if err := d.BatchDeleteAttributes(gone); err != nil {
			t.Fatal(err)
		}

		d.mu.Lock()
		maxPages = max(maxPages, len(d.pairs.pages))
		for id := range d.recs.n {
			for _, v := range retained(d, uint32(id)) {
				first, last := v.off>>pageShift, (v.off+max(v.n, 1)-1)>>pageShift
				if v.n <= pageLen && first != last || v.n > pageLen && v.off&(pageLen-1) != 0 {
					t.Fatalf("round %d: a %d-pair span at %d crosses a page", round, v.n, v.off)
				}
			}
		}
		d.mu.Unlock()
		if round%5 == 4 {
			checkCachedTables(t, d, round) // live + dead pairs fill the slab, and the index rebuilds
		}

		names := slices.Sorted(func(yield func(string) bool) {
			for name := range model {
				if !yield(name) {
					return
				}
			}
		})
		all, _, _, err := d.drainAll(Query{Domain: "prov"})
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != len(names) {
			t.Fatalf("round %d: SELECT * returned %d items, the model holds %d", round, len(all), len(names))
		}
		for i, it := range all {
			if it.Name != names[i] || !slices.Equal(it.Attrs, model[it.Name]) {
				t.Fatalf("round %d: SELECT item %d is %s %v, want %s %v", round, i, it.Name, it.Attrs, names[i], model[names[i]])
			}
			if i%4 != 0 {
				continue
			}
			got, err := d.GetAttributes(it.Name)
			if err != nil || !slices.Equal(got.Attrs, model[it.Name]) {
				t.Fatalf("round %d: GetAttributes(%s) = %v (%v), want %v", round, it.Name, got.Attrs, err, model[it.Name])
			}
			if round < 10 && i%20 == 0 {
				heldItems = append(heldItems, []Item{got})
			}
		}
		if round < 10 {
			heldItems = append(heldItems, all)
		}
		for len(wantItems) < len(heldItems) {
			wantItems = append(wantItems, deepCopy(heldItems[len(wantItems)]))
		}
	}
	t.Logf("the slab reached %d pages (%d at the end), compacted %d times, skipped up to %d pairs after one", maxPages, len(d.pairs.pages), compactions, padded)
	if maxPages < 3 || len(d.pairs.pages) < 3 || compactions == 0 || padded == 0 {
		t.Fatal("want three pages or more throughout, a compaction and a skipped tail")
	}
	for i := range heldItems {
		if !reflect.DeepEqual(heldItems[i], wantItems[i]) {
			t.Fatalf("held result %d changed under later writes, deletes and compactions", i)
		}
	}
}
