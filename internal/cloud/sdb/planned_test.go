package sdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// scatterAll is the reference the read planner is checked against: the
// query sent unchanged to every live shard of the view, merged by name —
// what SelectAllQuery did before it planned.
func scatterAll(t *testing.T, v *DomainView, q Query) ([]Item, int) {
	t.Helper()
	var lists [][]Item
	requests := 0
	for _, d := range v.shards {
		sq := q
		sq.Domain = d.Name()
		items, reqs, _, err := d.drainAll(sq)
		if err != nil {
			t.Fatal(err)
		}
		lists = append(lists, items)
		requests += reqs
	}
	return mergeByName(slices.Concat(lists...)), requests
}

// migration drives one epoch transition the way Deployment.Reshard does, stopping
// where the caller says: the window opens, every item is copied to its
// target-epoch home, the cutover promotes the target, the GC deletes what
// the new epoch does not home and a shrink retires the emptied slots.
type migration struct {
	t *testing.T
	s *DomainSet
	k int
}

func (m migration) begin() { m.s.BeginMigration(m.k) }

func (m migration) copyAndCutover() {
	v := m.s.View()
	for _, d := range v.shards {
		items, _, _, err := d.drainAll(Query{Domain: d.Name(), Consistent: true})
		if err != nil {
			m.t.Fatal(err)
		}
		for _, it := range items {
			homes := v.homesForItem(it.Name)
			for _, h := range homes.List() {
				if err := v.shards[h].PutAttributes(PutRequest{Item: it.Name, Attrs: it.Attrs, Replace: true}); err != nil {
					m.t.Fatal(err)
				}
			}
		}
	}
	m.s.Cutover()
}

func (m migration) gc() {
	v := m.s.View()
	for i, d := range v.shards {
		items, _, _, err := d.drainAll(Query{Domain: d.Name(), ItemOnly: true, Consistent: true})
		if err != nil {
			m.t.Fatal(err)
		}
		for _, it := range items {
			if v.homesForItem(it.Name)[0] != i {
				if err := d.BatchDeleteAttributes([]string{it.Name}); err != nil {
					m.t.Fatal(err)
				}
			}
		}
	}
	m.s.ShrinkTo(m.k)
}

// TestPlannedSelectEquivalenceDuringReshard is the read planner's property
// test: for randomized predicates, at K = 1, 2 and 4, in a steady epoch,
// inside a double-write window, between a cutover and its GC and after a
// completed shrink, the planned read returns exactly what an every-shard
// scatter returns — same items, same order, same projection — in no more
// requests; and the shapes that cannot pin a route key are never pruned.
func TestPlannedSelectEquivalenceDuringReshard(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			s := newSet(t, k)
			names := populateSet(t, s, 90)
			put := func(name string) {
				t.Helper()
				names = append(names, name)
				req := PutRequest{Item: name, Attrs: []Attr{{Name: "type", Value: "file"}, {Name: "seq", Value: "zzzzzz"}}, Replace: true}
				if err := s.BatchPutAttributes([]PutRequest{req}); err != nil {
					t.Fatal(err)
				}
			}
			// Names without the separator route by the whole name; the
			// planner must leave reads of them on every shard.
			for i := 0; i < 6; i++ {
				put(fmt.Sprintf("plain%d", i))
			}
			rng := rand.New(rand.NewSource(int64(k)))
			check := func(state string) {
				t.Helper()
				checkPlanned(t, s, rng, names, state)
			}

			check("steady")
			grow := migration{t, s, 2 * k}
			grow.begin()
			for i := 0; i < 12; i++ { // double-written: both homes hold them before the copy
				put(fmt.Sprintf("%08d-0000-4000-8000-00000000000w_%d", i, i))
			}
			check("window, before the copy")
			grow.copyAndCutover()
			check("after cutover, before GC")
			grow.gc()
			check("grown")
			shrink := migration{t, s, k}
			shrink.begin()
			check("shrink window")
			shrink.copyAndCutover()
			check("after shrink cutover, before GC")
			shrink.gc()
			if s.Shards() != k {
				t.Fatalf("shrink left %d shards, want %d", s.Shards(), k)
			}
			check("after a shrink")
		})
	}
}

// checkPlanned compares planned and scattered reads of one view over a
// fresh batch of random predicates.
func checkPlanned(t *testing.T, s *DomainSet, rng *rand.Rand, names []string, state string) {
	t.Helper()
	v := s.View()
	k := len(v.shards)
	pick := func() string {
		if rng.Intn(8) == 0 {
			return fmt.Sprintf("%08d-0000-4000-8000-000000000000_%d", rng.Intn(40), 900+rng.Intn(9)) // never written
		}
		name := names[rng.Intn(len(names))]
		for RouteKey(name) == name { // the routable shapes take uuid_version names only
			name = names[rng.Intn(len(names))]
		}
		return name
	}
	pickN := func() []string {
		out := make([]string, 1+rng.Intn(20))
		for i := range out {
			out[i] = pick()
		}
		return out
	}
	isFile := Eq("type", "file")
	type shape struct {
		name   string
		where  *Node
		routed bool
	}
	for round := 0; round < 25; round++ {
		one, many := pick(), pickN()
		shapes := []shape{
			{"=", Eq(ItemNameKey, one), true},
			{"in", In(ItemNameKey, many...), true},
			{"like uuid_%", Like(ItemNameKey, RouteKey(one)+"_%"), true},
			{"like full name", Like(ItemNameKey, one), true},
			{"in and attr", And(In(ItemNameKey, many...), isFile), true},
			{"attr and in", And(&Node{op: ">", attr: "seq", value: "000030"}, In(ItemNameKey, many...)), true},
			{"attr and (attr and =)", And(isFile, And(&Node{op: "<", attr: "seq", value: "000080"}, Eq(ItemNameKey, one))), true},
			{"in and =", And(In(ItemNameKey, many...), Eq(ItemNameKey, one)), true},
			{"(= or attr) and in", And(Or(Eq(ItemNameKey, one), isFile), In(ItemNameKey, many...)), true},

			{"or with a non-key branch", Or(Eq(ItemNameKey, one), Eq("seq", "000007")), false},
			{"or of two names", Or(Eq(ItemNameKey, one), Eq(ItemNameKey, many[0])), false},
			{"like shorter than the route key", Like(ItemNameKey, one[:4]+"%"), false},
			{"like the whole route key, no separator", Like(ItemNameKey, RouteKey(one)+"%"), false},
			{"suffix like", Like(ItemNameKey, "%_1"), false},
			{"!=", &Node{op: "!=", attr: ItemNameKey, value: one}, false},
			{"range", And(&Node{op: ">=", attr: ItemNameKey, value: one}, &Node{op: "<", attr: ItemNameKey, value: one + "~"}), false},
			{"= name without separator", Eq(ItemNameKey, "plain3"), false},
			{"in with one name without separator", In(ItemNameKey, append(many, "plain1")...), false},
			{"attr only", Eq("seq", "000011"), false},
			{"no predicate", nil, false},
		}
		for _, sh := range shapes {
			q := Query{Domain: "prov", Where: sh.where}
			switch rng.Intn(3) {
			case 1:
				q.ItemOnly = true
			case 2:
				q.Fields = []string{"seq"}
			}
			if rng.Intn(4) == 0 {
				q.Limit = 1 + rng.Intn(3) // several pages per shard
			}
			want, wantReqs := scatterAll(t, v, q)
			var r Result
			err := v.Drain(q, &r)
			got, gotReqs := r.Items, r.Requests
			if err != nil {
				t.Fatalf("%s, %s: %v", state, sh.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %s (%v): planned read diverged from the scatter\n got %v\nwant %v", state, sh.name, sh.where, got, want)
			}
			ts, err := v.targets(&q, nil)
			if err != nil {
				t.Fatal(err)
			}
			homes := v.homesForItem(one)
			switch {
			case !sh.routed && len(ts) != k:
				t.Fatalf("%s, %s (%v): pruned to %d of %d shards", state, sh.name, sh.where, len(ts), k)
			case sh.routed && gotReqs > wantReqs:
				t.Fatalf("%s, %s: planned read took %d requests, scatter %d", state, sh.name, gotReqs, wantReqs)
			case sh.routed && sh.where.op != "in" && sh.where.op != "and" && len(ts) > len(homes.List()):
				t.Fatalf("%s, %s: one name read from %d shards, its homes are %v", state, sh.name, len(ts), homes)
			}
			for _, tg := range ts { // every shard is asked only for names it can hold
				if c, pins := routePins(tg.where); sh.routed && k > 1 && c != nil && c.op == "in" {
					for _, p := range pins {
						if homes := v.homesForItem(p); !slices.Contains(homes.List(), tg.shard) {
							t.Fatalf("%s, %s: shard %d asked for %s, homes %v", state, sh.name, tg.shard, p, v.homesForItem(p))
						}
					}
				}
			}
			// The expression and paged entry points plan the same way.
			if sh.where != nil && q.Limit == 0 && !q.ItemOnly && q.Fields == nil {
				expr := "select * from prov where " + sh.where.String()
				viaExpr, _, _, err := v.SelectAll(expr)
				if err != nil || !reflect.DeepEqual(viaExpr, want) {
					t.Fatalf("%s, %s: SelectAll(%q) diverged (err %v)", state, sh.name, expr, err)
				}
				if paged := drainPaged(t, v, expr); !reflect.DeepEqual(paged, nameSet(want)) {
					t.Fatalf("%s, %s: paged Select(%q) saw %d names, want %d", state, sh.name, expr, len(paged), len(want))
				}
			}
		}
	}
}

func nameSet(items []Item) map[string]bool {
	set := make(map[string]bool, len(items))
	for _, it := range items {
		set[it.Name] = true
	}
	return set
}

// drainPaged drains the paged Select (shard-grouped pages; a migration
// window's duplicates are the caller's to collapse, hence a set).
func drainPaged(t *testing.T, v *DomainView, expr string) map[string]bool {
	t.Helper()
	set := make(map[string]bool)
	token := ""
	for pages := 0; ; pages++ {
		if pages > 1000 {
			t.Fatal("pagination did not terminate")
		}
		page, err := v.Select(expr, token)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range page.Items {
			set[it.Name] = true
		}
		if page.NextToken == "" {
			return set
		}
		token = page.NextToken
	}
}
