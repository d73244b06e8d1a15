package sdb

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"

	"passcloud/internal/resilient"
	"passcloud/internal/sim"
)

func strictDomain(t *testing.T) *Domain {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Consistency = sim.Strict
	return New(sim.NewEnv(cfg), "prov")
}

func TestPutGetAttributes(t *testing.T) {
	d := strictDomain(t)
	err := d.PutAttributes(PutRequest{Item: "uuid1_2", Attrs: []Attr{
		{Name: "name", Value: "foo"},
		{Name: "input", Value: "bar_2"},
		{Name: "type", Value: "file"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	it, err := d.GetAttributes("uuid1_2")
	if err != nil {
		t.Fatal(err)
	}
	if len(it.Attrs) != 3 {
		t.Fatalf("attrs = %v", it.Attrs)
	}
}

func TestGetMissingItem(t *testing.T) {
	d := strictDomain(t)
	if _, err := d.GetAttributes("nope"); !errors.Is(err, ErrNoSuchItem) {
		t.Fatalf("err = %v", err)
	}
}

func TestMultiValuedAttributes(t *testing.T) {
	d := strictDomain(t)
	// SimpleDB default put appends: an item may carry two attributes with
	// the same name (the paper's example: two "phone" attributes).
	d.PutAttributes(PutRequest{Item: "i", Attrs: []Attr{{Name: "input", Value: "a_1"}}})
	d.PutAttributes(PutRequest{Item: "i", Attrs: []Attr{{Name: "input", Value: "b_3"}}})
	it, _ := d.GetAttributes("i")
	var vals []string
	for _, a := range it.Attrs {
		if a.Name == "input" {
			vals = append(vals, a.Value)
		}
	}
	if len(vals) != 2 {
		t.Fatalf("input values = %v, want both", vals)
	}
}

func TestReplaceSemantics(t *testing.T) {
	d := strictDomain(t)
	d.PutAttributes(PutRequest{Item: "i", Attrs: []Attr{{Name: "v", Value: "old"}, {Name: "keep", Value: "k"}}})
	d.PutAttributes(PutRequest{Item: "i", Attrs: []Attr{{Name: "v", Value: "new"}}, Replace: true})
	it, _ := d.GetAttributes("i")
	var vVals, keepVals int
	for _, a := range it.Attrs {
		switch a.Name {
		case "v":
			vVals++
			if a.Value != "new" {
				t.Fatalf("v = %q after replace", a.Value)
			}
		case "keep":
			keepVals++
		}
	}
	if vVals != 1 || keepVals != 1 {
		t.Fatalf("v×%d keep×%d, want 1 and 1", vVals, keepVals)
	}
}

func TestValueLimit(t *testing.T) {
	d := strictDomain(t)
	big := strings.Repeat("x", MaxValueLen+1)
	err := d.PutAttributes(PutRequest{Item: "i", Attrs: []Attr{{Name: "a", Value: big}}})
	if !errors.Is(err, ErrValueTooLong) {
		t.Fatalf("err = %v, want ErrValueTooLong", err)
	}
	if err := d.BatchPutAttributes([]PutRequest{{Item: big, Attrs: []Attr{{Name: "a", Value: "v"}}}}); !errors.Is(err, ErrValueTooLong) {
		t.Fatalf("item name over 1KB: err = %v, want ErrValueTooLong", err)
	}
	ok := strings.Repeat("x", MaxValueLen)
	if err := d.PutAttributes(PutRequest{Item: ok, Attrs: []Attr{{Name: "a", Value: ok}}}); err != nil {
		t.Fatalf("exactly 1KB rejected: %v", err)
	}
}

func TestBatchLimit(t *testing.T) {
	d := strictDomain(t)
	reqs := make([]PutRequest, MaxBatchItems+1)
	for i := range reqs {
		reqs[i] = PutRequest{Item: fmt.Sprintf("i%d", i), Attrs: []Attr{{Name: "a", Value: "v"}}}
	}
	if err := d.BatchPutAttributes(reqs); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("err = %v, want ErrBatchTooLarge", err)
	}
	if err := d.BatchPutAttributes(reqs[:MaxBatchItems]); err != nil {
		t.Fatal(err)
	}
	if n := d.ItemCount(); n != MaxBatchItems {
		t.Fatalf("item count = %d", n)
	}
}

func TestBatchCostsMoreThanSinglePutButLessThanNSingles(t *testing.T) {
	single := strictDomain(t)
	batch := strictDomain(t)
	reqs := make([]PutRequest, 25)
	for i := range reqs {
		reqs[i] = PutRequest{Item: fmt.Sprintf("i%d", i), Attrs: []Attr{{Name: "a", Value: "v"}}}
	}
	for _, r := range reqs {
		single.PutAttributes(r)
	}
	batch.BatchPutAttributes(reqs)
	ts, tb := single.env.Now(), batch.env.Now()
	if tb >= ts {
		t.Fatalf("batch (%v) should beat 25 singles (%v)", tb, ts)
	}
}

func TestSelectBasic(t *testing.T) {
	d := strictDomain(t)
	d.PutAttributes(PutRequest{Item: "u1_1", Attrs: []Attr{{Name: "name", Value: "out.dat"}, {Name: "type", Value: "file"}}})
	d.PutAttributes(PutRequest{Item: "u2_1", Attrs: []Attr{{Name: "name", Value: "blast"}, {Name: "type", Value: "proc"}}})
	items, reqs, _, err := d.SelectAll("select * from prov where type = 'proc'")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].Name != "u2_1" {
		t.Fatalf("items = %v", items)
	}
	if reqs != 1 {
		t.Fatalf("requests = %d", reqs)
	}
}

func TestSelectStar(t *testing.T) {
	d := strictDomain(t)
	for i := 0; i < 10; i++ {
		d.PutAttributes(PutRequest{Item: fmt.Sprintf("i%02d", i), Attrs: []Attr{{Name: "n", Value: fmt.Sprint(i)}}})
	}
	items, _, bytes, err := d.SelectAll("select * from prov")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 10 || bytes <= 0 {
		t.Fatalf("items=%d bytes=%d", len(items), bytes)
	}
}

func TestSelectOperatorsAndBoolean(t *testing.T) {
	d := strictDomain(t)
	d.PutAttributes(PutRequest{Item: "a", Attrs: []Attr{{Name: "v", Value: "3"}, {Name: "type", Value: "file"}}})
	d.PutAttributes(PutRequest{Item: "b", Attrs: []Attr{{Name: "v", Value: "7"}, {Name: "type", Value: "proc"}}})
	d.PutAttributes(PutRequest{Item: "c", Attrs: []Attr{{Name: "type", Value: "pipe"}}})
	cases := []struct {
		expr string
		want int
	}{
		{"select * from prov where v != '3'", 1}, // b; c has no v
		{"select * from prov where v >= '3'", 2},
		{"select * from prov where type = 'file' or type = 'proc'", 2},
		{"select * from prov where type = 'proc' and v = '7'", 1},
		{"select * from prov where (type = 'file' or type = 'pipe') and v is null", 1},
		{"select * from prov where v is not null", 2},
		{"select * from prov where type like 'p%'", 2},
		{"select * from prov where itemName() = 'a'", 1},
	}
	for _, c := range cases {
		items, _, _, err := d.SelectAll(c.expr)
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		if len(items) != c.want {
			t.Fatalf("%s: got %d items, want %d", c.expr, len(items), c.want)
		}
	}
	// LIMIT caps one response; the NextToken continues (SimpleDB semantics).
	page, err := d.Select("select * from prov limit 2", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Items) != 2 || page.NextToken == "" {
		t.Fatalf("limit page: %d items, token %q", len(page.Items), page.NextToken)
	}
}

func TestSelectProjection(t *testing.T) {
	d := strictDomain(t)
	d.PutAttributes(PutRequest{Item: "i", Attrs: []Attr{{Name: "name", Value: "f"}, {Name: "other", Value: "x"}}})
	items, _, _, err := d.SelectAll("select name from prov")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || len(items[0].Attrs) != 1 || items[0].Attrs[0].Name != "name" {
		t.Fatalf("projection result %v", items)
	}
	items, _, _, _ = d.SelectAll("select itemName() from prov")
	if len(items) != 1 || len(items[0].Attrs) != 0 {
		t.Fatalf("itemName() result %v", items)
	}
}

func TestSelectPagination(t *testing.T) {
	d := strictDomain(t)
	for i := 0; i < 30; i++ {
		d.PutAttributes(PutRequest{Item: fmt.Sprintf("i%03d", i), Attrs: []Attr{{Name: "a", Value: "v"}}})
	}
	page, err := d.Select("select * from prov limit 10", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Items) != 10 || page.NextToken == "" {
		t.Fatalf("page: %d items token=%q", len(page.Items), page.NextToken)
	}
	page2, err := d.Select("select * from prov limit 10", page.NextToken)
	if err != nil {
		t.Fatal(err)
	}
	if len(page2.Items) != 10 || page2.Items[0].Name <= page.Items[len(page.Items)-1].Name {
		t.Fatalf("page2 did not continue: %v", page2.Items[0].Name)
	}
}

func TestSelectWrongDomain(t *testing.T) {
	d := strictDomain(t)
	if _, err := d.Select("select * from other", ""); err == nil {
		t.Fatal("wrong domain accepted")
	}
}

// badSelects are expressions ParseSelect refuses.
var badSelects = []string{
	"", "select", "select * from", "select * from prov where",
	"select * from prov where a ~ 'x'", "select * from prov where a = unquoted",
	"select * from prov where (a = 'x'", "select * from prov trailing",
	"select * from prov limit abc", "select * from prov where a ! 'x'",
	"select * from prov where 'a' = 'x'", "select * from prov where ` = 'x'",
}

func TestSelectParseErrors(t *testing.T) {
	for _, expr := range badSelects {
		if _, err := ParseSelect(expr); err == nil {
			t.Fatalf("ParseSelect(%q) succeeded", expr)
		}
	}
}

func TestSelectQuoteEscape(t *testing.T) {
	d := strictDomain(t)
	d.PutAttributes(PutRequest{Item: "i", Attrs: []Attr{{Name: "cmd", Value: "it's"}}})
	items, _, _, err := d.SelectAll("select * from prov where cmd = 'it''s'")
	if err != nil || len(items) != 1 {
		t.Fatalf("escaped quote: items=%v err=%v", items, err)
	}
}

func TestDeleteAttributes(t *testing.T) {
	d := strictDomain(t)
	d.PutAttributes(PutRequest{Item: "i", Attrs: []Attr{{Name: "a", Value: "v"}}})
	if err := d.BatchDeleteAttributes([]string{"i"}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.GetAttributes("i"); !errors.Is(err, ErrNoSuchItem) {
		t.Fatalf("get after delete: %v", err)
	}
	if n := d.ItemCount(); n != 0 {
		t.Fatalf("count = %d", n)
	}
}

func TestEventualConsistencyConverges(t *testing.T) {
	d := New(sim.NewEnv(sim.DefaultConfig()), "prov")
	d.PutAttributes(PutRequest{Item: "i", Attrs: []Attr{{Name: "version", Value: "1"}}})
	d.env.Clock().Advance(time.Minute)
	d.PutAttributes(PutRequest{Item: "i", Attrs: []Attr{{Name: "version", Value: "2"}}, Replace: true})
	d.env.Clock().Advance(time.Minute)
	it, err := d.GetAttributes("i")
	if err != nil {
		t.Fatal(err)
	}
	if len(it.Attrs) != 1 || it.Attrs[0].Value != "2" {
		t.Fatalf("settled read = %v", it.Attrs)
	}
}

func TestSelectObservesEventualConsistency(t *testing.T) {
	// A select right after a put may miss the item; after settling it must
	// always appear.
	d := New(sim.NewEnv(sim.DefaultConfig()), "prov")
	d.PutAttributes(PutRequest{Item: "i", Attrs: []Attr{{Name: "a", Value: "v"}}})
	d.env.Clock().Advance(time.Minute)
	items, _, _, err := d.SelectAll("select * from prov")
	if err != nil || len(items) != 1 {
		t.Fatalf("settled select: %v err=%v", items, err)
	}
}

// fileItems writes n single-attribute items f000.. in 25-item batches.
func fileItems(t *testing.T, d *Domain, n int) []string {
	t.Helper()
	names := make([]string, n)
	var reqs []PutRequest
	for i := range names {
		names[i] = fmt.Sprintf("f%03d", i)
		reqs = append(reqs, PutRequest{Item: names[i], Attrs: []Attr{{Name: "type", Value: "file"}}})
		if len(reqs) == MaxBatchItems || i == n-1 {
			if err := d.BatchPutAttributes(reqs); err != nil {
				t.Fatal(err)
			}
			reqs = nil
		}
	}
	return names
}

func TestBatchDeleteLimitAndMissingNames(t *testing.T) {
	d := strictDomain(t)
	names := fileItems(t, d, MaxBatchItems+1)
	if err := d.BatchDeleteAttributes(names); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("26 names: err = %v, want ErrBatchTooLarge", err)
	}
	if n := d.ItemCount(); n != len(names) {
		t.Fatalf("oversized batch deleted something: %d items left", n)
	}
	// Names the domain never held are a no-op, alone or mixed with real ones.
	if err := d.BatchDeleteAttributes([]string{"nope", names[0], "nada"}); err != nil {
		t.Fatal(err)
	}
	if n := d.ItemCount(); n != len(names)-1 {
		t.Fatalf("items = %d after deleting one real name among missing ones", n)
	}
	if _, err := d.GetAttributes(names[0]); !errors.Is(err, ErrNoSuchItem) {
		t.Fatalf("get after batch delete: %v", err)
	}
	if err := d.BatchDeleteAttributes([]string{"nope"}); err != nil {
		t.Fatal(err)
	}
	// An empty batch is not a request at all.
	before := d.env.Meter().Usage().TotalOps
	if err := d.BatchDeleteAttributes(nil); err != nil {
		t.Fatal(err)
	}
	if got := d.env.Meter().Usage().TotalOps; got != before {
		t.Fatalf("empty batch billed %d requests", got-before)
	}
}

// TestBatchDeleteIsOneRequest pins the billing and gating shape: a full
// 25-name batch is one billed request, one metered op of its own kind and
// one write-gate admission, at BatchPut-shaped latency.
func TestBatchDeleteIsOneRequest(t *testing.T) {
	d := strictDomain(t)
	env := d.env
	names := fileItems(t, d, MaxBatchItems)
	u0, t0 := env.Meter().Usage(), env.Now()
	if err := d.BatchDeleteAttributes(names); err != nil {
		t.Fatal(err)
	}
	u1, elapsed := env.Meter().Usage(), env.Now()-t0
	if got := u1.TotalOps - u0.TotalOps; got != 1 {
		t.Errorf("TotalOps grew by %d, want 1", got)
	}
	if got := u1.Requests[sim.CostSDB] - u0.Requests[sim.CostSDB]; got != 1 {
		t.Errorf("billed SimpleDB requests grew by %d, want 1", got)
	}
	if got := u1.OpsByKind["sdb.BatchDeleteAttributes"]; got != 1 {
		t.Errorf(`OpsByKind["sdb.BatchDeleteAttributes"] = %d, want 1`, got)
	}
	if got := u1.OpsByKind["sdb.DeleteAttributes"]; got != 0 {
		t.Errorf("batch delete also metered %d single deletes", got)
	}
	if got := u1.OpsByEndpoint[d.Name()] - u0.OpsByEndpoint[d.Name()]; got != 1 {
		t.Errorf("endpoint ops grew by %d, want 1", got)
	}
	// SDBBatchBase (±4% jitter) + 24 per-item increments, and no more: an
	// admission per name would queue the call behind itself at the write
	// gate for 24/7.1 = 3.4 s.
	m := sim.ModelFor(env.Config())
	want := m.SDBBatchBase + time.Duration(MaxBatchItems-1)*m.SDBBatchItem
	if slack := m.SDBBatchBase / 20; elapsed < want-slack || elapsed > want+slack {
		t.Errorf("25-name batch took %v, want %v ± %v", elapsed, want, slack)
	}
	if n := d.ItemCount(); n != 0 {
		t.Errorf("%d items left", n)
	}
}

// TestBatchDeleteAmbiguousFaultConverges: the service applies the batch but
// reports a transient error; the retry layer re-sends it, the second attempt
// finds nothing left to delete, and the call succeeds.
func TestBatchDeleteAmbiguousFaultConverges(t *testing.T) {
	d := strictDomain(t)
	env := d.env
	env.SetRetry(resilient.New(env, resilient.Policy{}))
	names := fileItems(t, d, 10)
	keep, gone := names[:3], names[3:]
	// Every batch delete attempted before the window closes faults
	// ambiguously; the retry lands a full service latency later.
	env.InstallFaults(sim.FaultPlan{d.Name(): {
		Prob: 1, ApplyProb: 1, Ops: []string{"sdb.BatchDeleteAttributes"}, Until: env.Now() + time.Millisecond,
	}})
	if err := d.BatchDeleteAttributes(gone); err != nil {
		t.Fatalf("retried batch delete: %v", err)
	}
	u := env.Meter().Usage()
	if u.Faults != 1 {
		t.Fatalf("faults injected = %d, want 1", u.Faults)
	}
	if got := u.OpsByKind["sdb.BatchDeleteAttributes"]; got != 2 {
		t.Fatalf("attempts = %d, want 2 (faulted + retry)", got)
	}
	items, _, _, err := d.SelectAll("select itemName() from prov")
	if err != nil || len(items) != len(keep) {
		t.Fatalf("after converged delete: %d items, err=%v; want %d", len(items), err, len(keep))
	}
	for i, it := range items {
		if it.Name != keep[i] {
			t.Fatalf("survivor %d = %s, want %s", i, it.Name, keep[i])
		}
	}
}

// TestTombstonesAreReaped: a deleted item used to stay in the item table,
// the sorted name table and every attribute's postings until the same name
// was written again. Once its tombstone is visible to every read it must be
// gone from all three, and SELECTs must stop examining it.
func TestTombstonesAreReaped(t *testing.T) {
	d := New(sim.NewEnv(sim.DefaultConfig()), "prov") // eventual consistency
	env := d.env
	names := fileItems(t, d, 30)
	env.Clock().Advance(time.Minute)
	if _, _, _, err := d.SelectAll("select itemName() from prov"); err != nil { // caches the name table
		t.Fatal(err)
	}
	if err := d.BatchDeleteAttributes(names[:20]); err != nil {
		t.Fatal(err)
	}
	// Resurrect one name inside its tombstone's window: the superseded
	// tombstone must not reap the live item later.
	back := names[5]
	if err := d.PutAttributes(PutRequest{Item: back, Attrs: []Attr{{Name: "type", Value: "file"}}}); err != nil {
		t.Fatal(err)
	}
	held := func() (items, sorted, postings int) {
		d.mu.Lock()
		defer d.mu.Unlock()
		if p := d.idx["type"].lookup("file"); p != nil {
			postings = int(p.distinct)
		}
		return d.items.n, len(d.items.sorted()), postings
	}
	if d.ItemCount() != 11 {
		t.Fatalf("live items = %d, want 11", d.ItemCount())
	}

	env.Clock().Advance(time.Minute) // every staleness window has passed
	const live = 11
	for _, expr := range []string{
		"select itemName() from prov",                     // name-table scan
		"select itemName() from prov where type = 'file'", // index path
	} {
		before := env.Meter().Usage().ItemsExamined
		got, _, _, err := d.SelectAll(expr)
		if err != nil || len(got) != live {
			t.Fatalf("%s: %d items, err=%v; want %d", expr, len(got), err, live)
		}
		if examined := env.Meter().Usage().ItemsExamined - before; examined != live {
			t.Errorf("%s examined %d names, want %d (dead names still visited)", expr, examined, live)
		}
	}
	items, sorted, postings := held()
	if items != live || sorted != live || postings != live {
		t.Fatalf("after the window the domain holds items=%d sorted=%d postings=%d, want %d each", items, sorted, postings, live)
	}
	if d.tombs.Len() != 0 {
		t.Fatalf("%d tombstones still queued", d.tombs.Len())
	}
	if it, err := d.GetAttributes(back); err != nil || len(it.Attrs) != 1 {
		t.Fatalf("resurrected item: %v err=%v", it, err)
	}
	if d.ItemCount() != live {
		t.Fatalf("live items = %d, want %d", d.ItemCount(), live)
	}
}

// TestEqualValuesStoredOnce: a value every item carries (the 900-byte
// environment of a bulk provenance record) is held once per domain however
// many private copies the writers sent, reads hand out that one copy, and a
// value that left the index with its last item is indexed again when it
// comes back.
func TestEqualValuesStoredOnce(t *testing.T) {
	d := strictDomain(t) // strict: a delete is reaped at once
	env := strings.Repeat("PATH=/bin:", 90)
	fresh := func() string { return string([]byte(env)) } // a decoder's private copy
	a, b := fresh(), fresh()
	if unsafe.StringData(a) == unsafe.StringData(b) {
		t.Fatal("the two copies share storage")
	}
	if err := d.BatchPutAttributes([]PutRequest{
		{Item: "i1", Attrs: []Attr{{Name: "type", Value: "file"}, {Name: "env", Value: a}}},
		{Item: "i2", Attrs: []Attr{{Name: "type", Value: "proc"}, {Name: "env", Value: b}}},
	}); err != nil {
		t.Fatal(err)
	}
	envOf := func(it Item) string {
		for _, at := range it.Attrs {
			if at.Name == "env" {
				return at.Value
			}
		}
		t.Fatalf("%s has no env: %v", it.Name, it.Attrs)
		return ""
	}
	var got []string
	for _, name := range []string{"i1", "i2"} {
		it, err := d.GetAttributes(name)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, envOf(it))
	}
	items, _, _, err := d.drainAll(Query{Domain: d.Name(), Where: Eq("env", env)})
	if err != nil || len(items) != 2 {
		t.Fatalf("select by env: %d items, err=%v; want 2", len(items), err)
	}
	for _, it := range items {
		got = append(got, envOf(it))
	}
	for i, v := range got {
		if v != env {
			t.Fatalf("read %d returned a different value", i)
		}
		if unsafe.StringData(v) != unsafe.StringData(got[0]) {
			t.Fatalf("read %d returned a second copy of the value", i)
		}
	}

	// The last reference goes, and the value with it; putting it again
	// indexes it afresh.
	if err := d.BatchDeleteAttributes([]string{"i1", "i2"}); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	gone := d.idx["env"].lookup(env) == nil && d.idx["env"].vals.n == 0
	d.mu.Unlock()
	if !gone {
		t.Fatal("a value no item holds is still indexed")
	}
	if err := d.PutAttributes(PutRequest{Item: "i3", Attrs: []Attr{{Name: "env", Value: fresh()}}}); err != nil {
		t.Fatal(err)
	}
	items, _, _, err = d.drainAll(Query{Domain: d.Name(), Where: Eq("env", env)})
	if err != nil || len(items) != 1 || items[0].Name != "i3" || envOf(items[0]) != env {
		t.Fatalf("select after re-put: %v, err=%v; want i3", items, err)
	}
}

// Select runs a SELECT expression (see package documentation for the
// supported grammar) returning one page; pass the previous page's NextToken
// to continue. Each page is one billed request.
func (d *Domain) Select(expr, nextToken string) (Result, error) {
	q, err := ParseSelect(expr)
	if err != nil {
		return Result{}, err
	}
	return d.SelectQuery(q, nextToken)
}

// SelectAll drains every page of a SELECT and reports the request count.
// The expression is parsed once, not once per page.
func (d *Domain) SelectAll(expr string) (items []Item, requests int, bytes int, err error) {
	q, err := ParseSelect(expr)
	if err != nil {
		return nil, 0, 0, err
	}
	return d.drainAll(q)
}

// drainAll drains q from d into a fresh Result, whose items the caller
// owns outright.
func (d *Domain) drainAll(q Query) (items []Item, requests int, bytes int, err error) {
	var r Result
	err = d.Drain(q, &r)
	return r.Items, r.Requests, r.Bytes, err
}

// SelectAll drains a SELECT expression into a fresh Result.
func (v *DomainView) SelectAll(expr string) (items []Item, requests int, bytes int, err error) {
	q, err := ParseSelect(expr)
	if err != nil {
		return nil, 0, 0, err
	}
	var r Result
	err = v.Drain(q, &r)
	return r.Items, r.Requests, r.Bytes, err
}

// Or disjoins two predicates.
func Or(l, r *Node) *Node { return &Node{op: "or", left: l, right: r} }
