package sdb

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"passcloud/internal/sim"
)

func TestInPredicate(t *testing.T) {
	d := strictDomain(t)
	d.PutAttributes(PutRequest{Item: "a", Attrs: []Attr{{Name: "input", Value: "x_1"}}})
	d.PutAttributes(PutRequest{Item: "b", Attrs: []Attr{{Name: "input", Value: "y_1"}}})
	d.PutAttributes(PutRequest{Item: "c", Attrs: []Attr{{Name: "input", Value: "z_1"}}})
	items, _, _, err := d.SelectAll("select itemName() from prov where input in ('x_1', 'z_1')")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || items[0].Name != "a" || items[1].Name != "c" {
		t.Fatalf("in result = %v", items)
	}
	// Programmatic form is equivalent.
	items2, _, _, err := d.SelectAllQuery(Query{Domain: "prov", ItemOnly: true, Where: In("input", "x_1", "z_1")})
	if err != nil {
		t.Fatal(err)
	}
	if len(items2) != 2 {
		t.Fatalf("built in query result = %v", items2)
	}
}

func TestInParseErrors(t *testing.T) {
	for _, expr := range []string{
		"select * from prov where a in",
		"select * from prov where a in (",
		"select * from prov where a in ('x'",
		"select * from prov where a in ('x' 'y')",
		"select * from prov where a in (unquoted)",
	} {
		if _, err := ParseSelect(expr); err == nil {
			t.Errorf("ParseSelect(%q) succeeded", expr)
		}
	}
}

// A multi-valued attribute matches IN and range predicates if any value
// satisfies them, and the item is returned once, not once per value.
func TestMultiValuedUnderInAndRange(t *testing.T) {
	d := strictDomain(t)
	d.PutAttributes(PutRequest{Item: "m", Attrs: []Attr{{Name: "input", Value: "a_1"}}})
	d.PutAttributes(PutRequest{Item: "m", Attrs: []Attr{{Name: "input", Value: "b_1"}}})
	d.PutAttributes(PutRequest{Item: "n", Attrs: []Attr{{Name: "input", Value: "c_1"}}})
	for _, c := range []struct {
		expr string
		want []string
	}{
		{"select itemName() from prov where input in ('a_1', 'b_1')", []string{"m"}},
		{"select itemName() from prov where input in ('b_1', 'c_1')", []string{"m", "n"}},
		{"select itemName() from prov where input >= 'b_1'", []string{"m", "n"}},
		{"select itemName() from prov where input < 'b_1'", []string{"m"}},
		{"select itemName() from prov where input > 'c_1'", nil},
		{"select itemName() from prov where input like 'a%'", []string{"m"}},
	} {
		items, _, _, err := d.SelectAll(c.expr)
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		var got []string
		for _, it := range items {
			got = append(got, it.Name)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.expr, got, c.want)
		}
	}
}

// LIMIT + NextToken resumption over an indexed access path: pages are
// disjoint, ordered, complete, and each carries at most LIMIT items.
func TestLimitNextTokenResumptionIndexed(t *testing.T) {
	d := strictDomain(t)
	for i := 0; i < 40; i++ {
		attrs := []Attr{{Name: "type", Value: "file"}}
		if i%2 == 0 {
			attrs = append(attrs, Attr{Name: "tag", Value: "even"})
		}
		d.PutAttributes(PutRequest{Item: fmt.Sprintf("i%03d", i), Attrs: attrs})
	}
	var got []string
	token := ""
	pages := 0
	for {
		page, err := d.Select("select itemName() from prov where tag = 'even' limit 7", token)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		if len(page.Items) > 7 {
			t.Fatalf("page of %d items exceeds limit", len(page.Items))
		}
		for _, it := range page.Items {
			got = append(got, it.Name)
		}
		if page.NextToken == "" {
			break
		}
		token = page.NextToken
	}
	if pages != 3 { // 20 matches / 7 per page
		t.Errorf("pages = %d, want 3", pages)
	}
	if len(got) != 20 {
		t.Fatalf("drained %d items, want 20", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("results out of order or duplicated: %v", got)
		}
	}
}

// The index is an access path, not a semantics change: every supported
// predicate shape returns exactly the scan path's results, and bills the
// same SELECT requests and bytes.
func TestIndexedMatchesScan(t *testing.T) {
	build := func(forceScan bool) *Domain {
		d := strictDomain(t)
		d.forceScan = forceScan
		for i := 0; i < 60; i++ {
			attrs := []Attr{
				{Name: "type", Value: []string{"file", "proc", "pipe"}[i%3]},
				{Name: "v", Value: fmt.Sprint(i % 10)},
			}
			if i%4 == 0 {
				attrs = append(attrs, Attr{Name: "input", Value: fmt.Sprintf("u%02d_1", i%8)})
			}
			d.PutAttributes(PutRequest{Item: fmt.Sprintf("it%02d", i), Attrs: attrs})
		}
		// Overwrites and deletes exercise index maintenance.
		d.PutAttributes(PutRequest{Item: "it10", Attrs: []Attr{{Name: "v", Value: "9"}}, Replace: true})
		d.DeleteAttributes("it11")
		return d
	}
	indexed, scan := build(false), build(true)
	for _, expr := range []string{
		"select * from prov where type = 'proc'",
		"select * from prov where type = 'proc' and v = '4'",
		"select * from prov where type = 'file' or type = 'pipe'",
		"select * from prov where input in ('u00_1', 'u04_1')",
		"select * from prov where v >= '3' and v <= '6'",
		"select * from prov where v > '7'",
		"select * from prov where v < '2'",
		"select * from prov where itemName() like 'it0%'",
		"select * from prov where itemName() = 'it42'",
		"select * from prov where itemName() >= 'it55'",
		"select * from prov where type like 'p%'",
		"select * from prov where type like '%e'", // suffix: scan on both
		"select * from prov where v != '0'",
		"select * from prov where input is null",
		"select * from prov where input is not null",
		"select * from prov where (type = 'proc' or v = '1') and itemName() < 'it50'",
		"select itemName() from prov where type = 'file' limit 5",
		"select v from prov where v = '9'",
	} {
		a, ua := billedSelect(t, indexed, expr)
		b, ub := billedSelect(t, scan, expr)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: indexed %v != scan %v", expr, a, b)
		}
		if ua != ub || ua.selects == 0 || ua.out == 0 {
			t.Errorf("%s: indexed billed %+v, scan %+v, want equal and nonzero", expr, ua, ub)
		}
	}
}

// selectBill is what one drained SELECT cost: its billed sdb.Select
// requests and its bytes in each direction.
type selectBill struct{ selects, in, out int64 }

// billedSelect drains expr on d and returns the items and their bill.
func billedSelect(t *testing.T, d *Domain, expr string) ([]Item, selectBill) {
	t.Helper()
	u0 := d.Env().Meter().Usage()
	items, _, _, err := d.SelectAll(expr)
	if err != nil {
		t.Fatalf("%s (forceScan=%v): %v", expr, d.forceScan, err)
	}
	u := d.Env().Meter().Usage()
	return items, selectBill{
		selects: u.OpsByKind["sdb.Select"] - u0.OpsByKind["sdb.Select"],
		in:      u.BytesIn - u0.BytesIn,
		out:     u.BytesOut - u0.BytesOut,
	}
}

// Index visibility under eventual consistency: a SELECT issued immediately
// after a write is allowed to miss the item (and the index must not leak
// it as a certain hit); once the staleness window passes, it must always
// appear. A replaced value may transiently still match, but never after
// the domain settles.
func TestIndexVisibilityEventual(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Seed = 5
	d := New(sim.NewEnv(cfg), "prov")

	misses := 0
	for i := 0; i < 40; i++ {
		item := fmt.Sprintf("f%03d", i)
		d.PutAttributes(PutRequest{Item: item, Attrs: []Attr{{Name: "gen", Value: "fresh"}}})
		items, _, _, err := d.SelectAll(fmt.Sprintf("select itemName() from prov where itemName() = '%s'", item))
		if err != nil {
			t.Fatal(err)
		}
		if len(items) == 0 {
			misses++
		}
		d.Env().Clock().Advance(time.Minute) // settle before the next round
	}
	if misses == 0 {
		t.Fatal("no immediate read ever missed a fresh write; staleness engine off?")
	}

	// Settled reads see everything.
	items, _, _, err := d.SelectAll("select itemName() from prov where gen = 'fresh'")
	if err != nil || len(items) != 40 {
		t.Fatalf("settled select: %d items err=%v, want 40", len(items), err)
	}

	// Replace and query the old value: stale hits are permitted inside the
	// window, but after settling the old value must be gone even though the
	// superseded version briefly stayed indexed.
	d.PutAttributes(PutRequest{Item: "f000", Attrs: []Attr{{Name: "gen", Value: "updated"}}, Replace: true})
	d.Env().Clock().Advance(time.Minute)
	items, _, _, err = d.SelectAll("select itemName() from prov where gen = 'updated'")
	if err != nil || len(items) != 1 {
		t.Fatalf("settled select of new value: %v err=%v", items, err)
	}
	for i := 0; i < 5; i++ { // retained-version coin flips are random; retry
		items, _, _, err = d.SelectAll("select itemName() from prov where gen = 'fresh' and itemName() = 'f000'")
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != 0 {
			t.Fatalf("settled select still returns replaced value: %v", items)
		}
	}
}

// The indexed path must beat the scan path in simulated time on a domain
// big enough for the per-item scan charge to dominate the request base.
func TestIndexReducesSimulatedSelectTime(t *testing.T) {
	run := func(forceScan bool) time.Duration {
		d := strictDomain(t)
		d.forceScan = forceScan
		for i := 0; i < 5000; i++ {
			d.PutAttributes(PutRequest{Item: fmt.Sprintf("i%05d", i), Attrs: []Attr{
				{Name: "type", Value: "file"},
				{Name: "name", Value: fmt.Sprintf("mnt/f%05d", i)},
			}})
		}
		start := d.Env().Now()
		if _, _, _, err := d.SelectAll("select itemName() from prov where name = 'mnt/f04999'"); err != nil {
			t.Fatal(err)
		}
		return d.Env().Now() - start
	}
	indexed, scan := run(false), run(true)
	if scan < 2*indexed {
		t.Fatalf("indexed select (%v) not ≥2x faster than scan (%v)", indexed, scan)
	}
}

// TestPlanOverlappingPostings resolves predicates whose postings overlap —
// an IN over a multi-valued attribute (one item under two listed values, one
// value listed twice), an OR of two branches that share items, and an OR of
// two itemName() paths — and checks each candidate list is the sorted,
// deduplicated union, and that the SELECTs examine exactly those candidates.
func TestPlanOverlappingPostings(t *testing.T) {
	d := strictDomain(t)
	held := make(map[string][]Attr)
	for i := 0; i < 30; i++ {
		attrs := []Attr{{Name: "input", Value: fmt.Sprintf("x_%d", i%5)}, {Name: "name", Value: fmt.Sprintf("n%d", i%3)}}
		if i%4 == 0 {
			attrs = append(attrs, Attr{Name: "input", Value: fmt.Sprintf("x_%d", (i+1)%5)})
		}
		name := fmt.Sprintf("i%02d", i)
		held[name] = attrs
		if err := d.PutAttributes(PutRequest{Item: name, Attrs: attrs}); err != nil {
			t.Fatal(err)
		}
	}
	preds := []*Node{
		In("input", "x_0", "x_1", "x_1"),
		Or(In("input", "x_0", "x_1"), Eq("name", "n0")),
		Or(Eq(ItemNameKey, "i03"), Like(ItemNameKey, "i0%")),
	}
	env := d.Env()
	before := env.Meter().Usage().ItemsExamined
	for _, p := range preds {
		var want []string
		for name, attrs := range held {
			if p.eval(Item{Name: name, Attrs: attrs}) {
				want = append(want, name)
			}
		}
		slices.Sort(want)
		d.mu.Lock()
		got, ok := d.planLocked(p)
		d.mu.Unlock()
		if !ok || !slices.Equal(got, want) {
			t.Fatalf("%v: candidates %v (indexed %v), want %v", p, got, ok, want)
		}
		items, _, _, err := d.SelectAllQuery(Query{Domain: d.Name(), ItemOnly: true, Where: p})
		if err != nil || len(items) != len(want) {
			t.Fatalf("%v: %d items, err=%v, want %d", p, len(items), err, len(want))
		}
	}
	// 14 + 19 + 10 candidates, as many as a set-based planner examined.
	if got := env.Meter().Usage().ItemsExamined - before; got != 43 {
		t.Fatalf("examined %d items, want 43", got)
	}
}
