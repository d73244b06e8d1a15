package sdb

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"passcloud/internal/sim"
)

// heldStrings is what a table's sorted view must equal: the strings it
// holds, sorted from scratch.
func heldStrings(tab *strtab) []string {
	var out []string
	for id := range tab.refs {
		if !tab.removed(uint32(id)) {
			out = append(out, tab.str(uint32(id)))
		}
	}
	sort.Strings(out)
	return out
}

// viewStrings reads a table's sorted view as strings.
func viewStrings(tab *strtab) []string {
	var out []string
	for _, id := range tab.sorted() {
		out = append(out, tab.str(id))
	}
	return out
}

// retained returns the retained versions of the item holding id, oldest
// first. The caller holds d.mu.
func retained(d *Domain, id uint32) []version {
	r := d.recs.at(id)
	switch r.n {
	case 0:
		return nil
	case 1:
		return []version{r.last}
	}
	return []version{d.older[id], r.last}
}

// checkCachedTables reads every view the domain has cached — the item
// names and each attribute's values — and compares it with a from-scratch
// sort of the strings its table holds. It then rebuilds the index from the
// retained versions and checks that every (attribute, value) resolves to
// exactly the rebuilt names, with the rebuilt distinct count, through
// ascending id postings that only a shared value keeps in a list. Every
// record holding two versions has its older one in d.older, and nothing else
// is there.
func checkCachedTables(t *testing.T, d *Domain, step int) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.items.view != nil {
		if got, want := viewStrings(&d.items), heldStrings(&d.items); !slices.Equal(got, want) {
			t.Fatalf("step %d: name view %v, want %v", step, got, want)
		}
	}
	rebuilt := make(map[string]map[string]map[string]bool) // attr → value → names
	live, twos := 0, 0
	for i := range d.recs.n {
		vs := retained(d, uint32(i))
		for _, v := range vs {
			live += int(v.n)
		}
		if len(vs) == 2 {
			twos++
		}
	}
	if twos != len(d.older) {
		t.Fatalf("step %d: %d records hold two versions, %d older versions are kept", step, twos, len(d.older))
	}
	if live+d.dead != d.pairs.n {
		t.Fatalf("step %d: slab of %d pairs holds %d live and counts %d dead", step, d.pairs.n, live, d.dead)
	}
	for i := range d.items.refs {
		id := uint32(i)
		if d.items.removed(id) {
			continue
		}
		name := d.items.str(id)
		if got, ok, _ := d.items.lookup(name); !ok || got != id {
			t.Fatalf("step %d: id %d names %q, the item table says %d (%v)", step, id, name, got, ok)
		}
		for _, v := range retained(d, id) {
			for _, a := range d.appendAttrs(nil, v) {
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
		if ix.vals.view != nil {
			if got, want := viewStrings(&ix.vals), heldStrings(&ix.vals); !slices.Equal(got, want) {
				t.Fatalf("step %d: values of %s %v, want %v", step, attr, got, want)
			}
		}
		if ix.vals.n != len(rebuilt[attr]) {
			t.Fatalf("step %d: %s indexes %d values, the retained versions hold %d", step, attr, ix.vals.n, len(rebuilt[attr]))
		}
		for v, want := range rebuilt[attr] {
			p := ix.lookup(v)
			if p == nil {
				t.Fatalf("step %d: %s=%s is held but not indexed", step, attr, v)
			}
			ids := postingsList(ix, p)
			if !slices.IsSorted(ids) {
				t.Fatalf("step %d: postings of %s=%s not ascending: %v", step, attr, v, ids)
			}
			if (ids != nil) != (p.distinct >= 2) {
				t.Fatalf("step %d: postings of %s=%s: list %v for %d distinct items", step, attr, v, ids, p.distinct)
			}
			var got []string
			for _, id := range ix.appendIDs(nil, p) {
				got = append(got, d.items.str(id))
			}
			slices.Sort(got)
			if n := len(slices.Compact(slices.Clone(got))); n != len(got) {
				t.Fatalf("step %d: postings of %s=%s collected a name twice: %v", step, attr, v, got)
			}
			w := slices.Sorted(func(yield func(string) bool) {
				for name := range want {
					if !yield(name) {
						return
					}
				}
			})
			if !slices.Equal(got, w) || int(p.distinct) != len(w) {
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
	if d.items.view != nil || d.idx["a"].vals.view != nil {
		t.Fatal("a write built a sorted view nothing had read")
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
	if d.items.view == nil || d.idx["a"].vals.view == nil {
		t.Fatal("the interleaving never cached the tables it was meant to check")
	}

	// Reap everything, then put again: the new names take the reaped ids
	// instead of growing the record table, and index like any other.
	for batch := range slices.Chunk(heldStrings(&d.items), MaxBatchItems) {
		if err := d.BatchDeleteAttributes(batch); err != nil {
			t.Fatal(err)
		}
	}
	env.Clock().Advance(time.Minute)
	if got, _, _, err := d.SelectAll(selects[0]); err != nil || len(got) != 0 {
		t.Fatalf("after reaping every item: %d items, err=%v", len(got), err)
	}
	checkCachedTables(t, d, -1)
	slots := d.recs.n
	if d.items.n != 0 || len(d.items.free) != slots {
		t.Fatalf("after reaping every item: %d held, %d of %d ids free", d.items.n, len(d.items.free), slots)
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
	if d.recs.n != slots || len(d.items.free) != slots-len(reput) {
		t.Fatalf("re-put grew the record table to %d (was %d), %d ids free", d.recs.n, slots, len(d.items.free))
	}
}

// TestStrtabMatchesModel drives string tables through a seeded mix of
// interns, lookups, removals (one to three ids at once), sorted-view reads
// and forced compactions, and checks every step against a map[string]uint32
// and sort.Strings. The keys mix the empty string, short strings and
// strings of up to MaxValueLen bytes, which fill chunks fast. The smallest
// table never holds more than 7 strings, so it keeps its 16 slots, and its
// keys are picked by the table's own hash: three share the last slot and
// two the one before, so its probes collide and wrap around the end
// whatever the seed. Every string a table returned is kept with a private
// copy and must still read the same after each compaction, and a freed id
// must be the next one a new string takes.
func TestStrtabMatchesModel(t *testing.T) {
	rnd := sim.NewRand(46)
	ops, displaced, wrapped := 0, 0, 0
	for _, universe := range []int{7, 24, 60} {
		tab := newStrtab()
		homes := map[int]int{15: 3, 14: 2} // the small table's wanted homes
		var keys []string
		for i := 0; len(keys) < universe; i++ {
			key := fmt.Sprintf("%0*d", 1+i%13, i*7919)
			switch {
			case i == 0:
				key = ""
			case i%11 == 5:
				key = strings.Repeat(string(rune('a'+i%26)), MaxValueLen-i)
			}
			if universe == 7 && len(keys) < 5 {
				if h := tab.hash(key) & 15; homes[h] > 0 {
					homes[h]--
				} else {
					continue
				}
			}
			keys = append(keys, key)
		}
		model := make(map[string]uint32)
		type handed struct{ got, want string }
		var kept []handed
		keep := func(s string) {
			if len(kept) == 4096 {
				kept = kept[1:]
			}
			kept = append(kept, handed{s, strings.Clone(s)})
		}
		heldKeys := func() []string {
			out := make([]string, 0, len(model))
			for k := range model {
				out = append(out, k)
			}
			sort.Strings(out)
			return out
		}
		for step := 0; step < 40_000; step++ {
			ops++
			switch op := rnd.Intn(100); {
			case op < 40:
				s := keys[rnd.Intn(universe)]
				var reuse []uint32
				if n := len(tab.free); n > 0 {
					reuse = tab.free[n-1:]
				}
				n := tab.n
				id := tab.intern(s)
				want, held := model[s]
				switch {
				case held && (tab.n != n || id != want):
					t.Fatalf("universe %d step %d: intern of a held string gave id %d (%d strings, were %d), want %d", universe, step, id, tab.n, n, want)
				case !held && tab.n != n+1:
					t.Fatalf("universe %d step %d: intern of a new string left %d strings, were %d", universe, step, tab.n, n)
				case !held && reuse != nil && id != reuse[0]:
					t.Fatalf("universe %d step %d: new string took id %d, the last freed was %d", universe, step, id, reuse[0])
				}
				model[s] = id
				keep(tab.str(id))
			case op < 60:
				s := keys[rnd.Intn(universe)]
				id, ok, _ := tab.lookup(s)
				if want, held := model[s]; ok != held || ok && id != want {
					t.Fatalf("universe %d step %d: lookup gave %d %v, want %d %v", universe, step, id, ok, want, held)
				}
			case op < 80:
				held := heldKeys()
				if len(held) == 0 {
					continue
				}
				var ids []uint32
				for range 1 + rnd.Intn(min(3, len(held))) {
					s := held[rnd.Intn(len(held))]
					if id, ok := model[s]; ok {
						ids = append(ids, id)
						delete(model, s)
					}
				}
				tab.remove(ids...)
			case op < 95:
				ids := tab.sorted()
				got := make([]string, len(ids))
				for i, id := range ids {
					got[i] = tab.str(id)
					if model[got[i]] != id {
						t.Fatalf("universe %d step %d: view lists id %d for %q, the model %d", universe, step, id, got[i], model[got[i]])
					}
				}
				if want := heldKeys(); !slices.Equal(got, want) {
					t.Fatalf("universe %d step %d: view %q, want %q", universe, step, got, want)
				}
			default:
				tab.compact()
				for i, h := range kept {
					if h.got != h.want {
						t.Fatalf("universe %d step %d: string %d handed out earlier now reads %q, was %q", universe, step, i, h.got, h.want)
					}
				}
			}
			if tab.n != len(model) {
				t.Fatalf("universe %d step %d: table holds %d strings, the model %d", universe, step, tab.n, len(model))
			}
			if step%8 != 0 {
				continue
			}
			mask := len(tab.slots) - 1
			for j, e := range tab.slots {
				if e == 0 {
					continue
				}
				home := tab.hash(tab.str(e-1)) & mask
				if home != j {
					displaced++
				}
				if home > j {
					wrapped++
				}
			}
		}
		for s, id := range model {
			if got := tab.str(id); got != s {
				t.Fatalf("universe %d: id %d reads %q, want %q", universe, id, got, s)
			}
		}
	}
	if ops < 100_000 || displaced == 0 || wrapped == 0 {
		t.Fatalf("%d operations, %d displaced and %d wrapped slot readings: the tables were not small enough to collide", ops, displaced, wrapped)
	}
}

// TestViewsSurviveConcurrentWrites: readers keep the item names and values
// that SELECT and GetAttributes return — views of the domain's chunks — and
// re-read them byte by byte while one writer puts, replaces, deletes, reaps
// and compacts on the same domain. The domain is strict, so a read returns
// the values just written, whose bytes sit in the chunk the writer is
// appending to. Run under -race it checks that a view's bytes are never
// written again; without it, that they never change.
func TestViewsSurviveConcurrentWrites(t *testing.T) {
	d := strictDomain(t) // a read sees the latest write, and a delete reaps on the next one
	env := d.env
	rnd := sim.NewRand(11)
	put := func(i, gen int) PutRequest {
		return PutRequest{Item: fmt.Sprintf("u%04d_1", i), Replace: true, Attrs: []Attr{
			{Name: "type", Value: []string{"file", "proc"}[i%2]},
			{Name: "name", Value: fmt.Sprintf("mnt/%04d/%06d", i, gen)},
			{Name: "env", Value: fmt.Sprintf("%06d", gen) + strings.Repeat("e", 200)},
		}}
	}
	for lo := 0; lo < 200; lo += MaxBatchItems {
		batch := make([]PutRequest, 0, MaxBatchItems)
		for i := lo; i < lo+MaxBatchItems; i++ {
			batch = append(batch, put(i, 0))
		}
		if err := d.BatchPutAttributes(batch); err != nil {
			t.Fatal(err)
		}
	}
	sum := func(s string) (h uint32) {
		// Through a byte slice: the race detector does not instrument loads
		// from a string's bytes, which the language promises never change.
		for _, c := range unsafe.Slice(unsafe.StringData(s), len(s)) {
			h = h*31 + uint32(c)
		}
		return h
	}
	type view struct {
		s    string
		want uint32
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var kept []view
			keep := func(s string) { kept = append(kept, view{s, sum(s)}) }
			exprs := []string{
				"select * from prov",
				"select * from prov where type = 'file'",
				"select * from prov where name > 'mnt/0150'",
				"select * from prov where itemName() like 'u00%'",
			}
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				items, _, _, err := d.SelectAll(exprs[(n+r)%len(exprs)])
				if err != nil {
					t.Error(err)
					return
				}
				if it, err := d.GetAttributes(fmt.Sprintf("u%04d_1", (n*7+r)%200)); err == nil {
					items = append(items, it)
				}
				for _, it := range items[:min(len(items), 20)] {
					keep(it.Name)
					for _, a := range it.Attrs {
						keep(a.Value)
					}
				}
				for _, v := range kept {
					if sum(v.s) != v.want {
						t.Errorf("reader %d: a view changed under a write: %.20q", r, v.s)
						return
					}
				}
				if len(kept) > 400 {
					kept = kept[len(kept)-200:]
				}
			}
		}(r)
	}
	for gen := 1; gen <= 300; gen++ {
		batch := make([]PutRequest, 0, MaxBatchItems)
		for range MaxBatchItems {
			batch = append(batch, put(rnd.Intn(200), gen))
		}
		if err := d.BatchPutAttributes(batch); err != nil {
			t.Fatal(err)
		}
		if gen%5 == 0 {
			names := make([]string, 10)
			for i := range names {
				names[i] = fmt.Sprintf("u%04d_1", rnd.Intn(200))
			}
			if err := d.BatchDeleteAttributes(names); err != nil {
				t.Fatal(err)
			}
		}
		env.Clock().Advance(time.Second) // tombstones past their window reap on the next write
		if gen%25 == 0 {
			d.mu.Lock()
			d.items.compact()
			for _, ix := range d.attrs {
				ix.vals.compact()
			}
			d.mu.Unlock()
		}
	}
	close(done)
	wg.Wait()
}

// hasPointers reports whether a value of type typ holds anything the
// collector has to trace.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Array:
		return hasPointers(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	}
	return true
}

// populateStore writes n items shaped like the provenance store: a type two
// values cover, a name per item, an input most items share with one other.
func populateStore(t *testing.T, d *Domain, n int) {
	t.Helper()
	for lo := 0; lo < n; lo += MaxBatchItems {
		batch := make([]PutRequest, 0, MaxBatchItems)
		for i := lo; i < lo+MaxBatchItems; i++ {
			batch = append(batch, PutRequest{Item: fmt.Sprintf("%08x-0000-4000-8000-%012x_1", i, i), Attrs: []Attr{
				{Name: "type", Value: []string{"file", "proc"}[i%2]},
				{Name: "name", Value: fmt.Sprintf("mnt/out/%06d", i)},
				{Name: "input", Value: fmt.Sprintf("%08x-0000-4000-8000-%012x_1", i/2, i/2)},
			}})
		}
		if err := d.BatchPutAttributes(batch); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreTablesHoldNoPointers: after a 20k-item populate, every table
// indexed by item or value id has a pointer-free element type — each page of
// the paged records, the pair slab and the postings too, and the map of
// older versions — and only values two or more items carry have a list.
// A record is 24 bytes and a postings entry 12.
func TestStoreTablesHoldNoPointers(t *testing.T) {
	if rec, post := unsafe.Sizeof(itemRec{}), unsafe.Sizeof(postings{}); rec != 24 || post != 12 {
		t.Fatalf("a record is %d bytes and a postings entry %d, want 24 and 12", rec, post)
	}
	d := strictDomain(t)
	const n = 20_000
	populateStore(t, d, n)
	d.mu.Lock()
	defer d.mu.Unlock()
	tables := map[string]any{
		"item refs":   d.items.refs,
		"item slots":  d.items.slots,
		"item view":   d.items.sorted(),
		"item chunks": d.items.chunks[0],
	}
	for k := range d.recs.pages {
		tables[fmt.Sprint("records page ", k)] = d.recs.pages[k]
	}
	for k := range d.pairs.pages {
		tables[fmt.Sprint("pairs page ", k)] = d.pairs.pages[k]
	}
	if len(d.recs.pages) < 3 || len(d.pairs.pages) < 3 {
		t.Fatalf("%d record and %d pair pages, want three or more of each", len(d.recs.pages), len(d.pairs.pages))
	}
	for _, ix := range d.attrs {
		tables[ix.name+" refs"] = ix.vals.refs
		tables[ix.name+" slots"] = ix.vals.slots
		tables[ix.name+" view"] = ix.vals.sorted()
		for k := range ix.ents.pages {
			tables[fmt.Sprint(ix.name, " postings page ", k)] = ix.ents.pages[k]
		}
	}
	if typ := reflect.TypeOf(d.older); hasPointers(typ.Key()) || hasPointers(typ.Elem()) {
		t.Errorf("older versions: %v holds pointers", typ)
	}
	for name, tab := range tables {
		v := reflect.ValueOf(tab)
		if v.Len() == 0 {
			t.Fatalf("%s is empty", name)
		}
		if typ := v.Type().Elem(); hasPointers(typ) {
			t.Errorf("%s: element type %v holds pointers", name, typ)
		}
	}
	if d.items.n != n || d.recs.n != n {
		t.Fatalf("%d names and %d records, want %d", d.items.n, d.recs.n, n)
	}
	shared, single := 0, 0
	for _, ix := range d.attrs {
		for vid := range ix.ents.n {
			p := ix.ents.at(uint32(vid))
			switch ids := postingsList(ix, p); {
			case p.distinct >= 2 && len(ids) >= 2:
				shared++
			case p.distinct == 1 && ids == nil:
				single++
			default:
				t.Fatalf("%s=%q: postings list %v for %d distinct items", ix.name, ix.vals.str(uint32(vid)), ids, p.distinct)
			}
		}
		if len(ix.free) != 0 || slices.ContainsFunc(ix.lists, func(ids []uint32) bool { return ids == nil }) {
			t.Fatalf("%s: %d free lists after a populate that shares values and drops none", ix.name, len(ix.free))
		}
	}
	// type: 2 shared; input: n/2 shared pairs; name: n singletons.
	if shared != 2+n/2 || single != n {
		t.Fatalf("%d shared and %d single-item values, want %d and %d", shared, single, 2+n/2, n)
	}
}

// pagedBytes is the memory a paged table's pages hold (a run's pages share
// one array, a page of it each).
func pagedBytes[T any](s *paged[T]) int64 {
	n := 0
	for _, p := range s.pages {
		n += min(cap(p), pageLen)
	}
	return int64(n) * int64(unsafe.Sizeof(*new(T)))
}

// tableGrowthBytes is what the memory profile records as allocated to grow
// the domain's tables: allocations whose innermost sdb frame appends a
// version's pairs or a new item's record (applyLocked), a new value's
// postings (attrIndex.intern) or grows a paged table.
func tableGrowthBytes() int64 {
	runtime.GC()
	runtime.GC() // the profile is published as of the last completed cycle
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	for {
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	var b int64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if fn, ok := strings.CutPrefix(f.Function, "passcloud/internal/cloud/sdb."); ok {
				if fn == "(*Domain).applyLocked" || fn == "(*attrIndex).intern" || strings.HasPrefix(fn, "(*paged[") {
					b += r.AllocBytes
				}
				break
			}
			if !more {
				break
			}
		}
	}
	return b
}

// TestTableGrowthAllocatesOnce: populating 20k items allocates at most 1.3×
// what the records, the pair slab and the postings hold at the end: only
// page 0 grows by copying. Tables that grew by append, about 1.25× a step,
// allocated about four times their final size.
func TestTableGrowthAllocatesOnce(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	d := strictDomain(t)
	before := tableGrowthBytes()
	populateStore(t, d, 20_000)
	grew := tableGrowthBytes() - before
	d.mu.Lock()
	kept := pagedBytes(&d.recs) + pagedBytes(&d.pairs)
	for _, ix := range d.attrs {
		kept += pagedBytes(&ix.ents)
	}
	d.mu.Unlock()
	t.Logf("growing the tables allocated %d bytes; they hold %d (%.2f×)", grew, kept, float64(grew)/float64(kept))
	if grew > kept*13/10 {
		t.Fatalf("growing the tables allocated %d bytes, over 1.3× the %d they hold", grew, kept)
	}
}

// postingsList returns the item ids of p, ascending and one per reference,
// or nil when at most one item carries its value.
func postingsList(ix *attrIndex, p *postings) []uint32 {
	if p.distinct < 2 {
		return nil
	}
	return ix.lists[p.one]
}
