// Package sdb implements the simulated cloud database service (Amazon
// SimpleDB as of its 2009/2010 public beta): a semi-structured store of
// items, each a set of multi-valued <attribute,value> pairs, with every
// attribute indexed and queryable through a SELECT interface.
//
// The limits that shaped the paper's protocols are enforced: attribute names
// and values are capped at 1 KB (larger provenance values spill to S3
// objects), BatchPutAttributes accepts at most 25 items per call, and SELECT
// responses are paginated. Reads are eventually consistent unless the
// environment runs in strict mode.
//
// Like the real service, every attribute is indexed on write: SELECT
// resolves equality, IN, prefix and range predicates through per-attribute
// secondary indexes (index.go) chosen by a small planner (plan.go), and
// falls back to a streaming scan of the sorted name table otherwise. Index
// candidates are re-validated against the version each read observes, so
// eventual-consistency semantics are identical on both access paths.
package sdb

import (
	"container/heap"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"passcloud/internal/sim"
)

// Limits mirrored from the real service.
const (
	MaxValueLen   = 1024 // bytes per attribute name or value
	MaxBatchItems = 25   // items per BatchPutAttributes/BatchDeleteAttributes call
	MaxSelectPage = 2500 // items per SELECT page
	maxPageBytes  = 1 << 20
)

// ErrValueTooLong is returned when an attribute name or value exceeds 1 KB.
var ErrValueTooLong = errors.New("sdb: attribute name or value exceeds 1KB")

// ErrBatchTooLarge is returned when a batch has more than 25 items.
var ErrBatchTooLarge = errors.New("sdb: more than 25 items in batch")

// ErrNoSuchItem is returned by GetAttributes on a missing item.
var ErrNoSuchItem = errors.New("sdb: no such item")

// Attr is one attribute-value pair. Items may carry several attributes with
// the same name (multi-valued attributes).
type Attr struct {
	Name  string
	Value string
}

// Item is a named row with its attributes.
type Item struct {
	Name  string
	Attrs []Attr
}

// size estimates the wire size of an item for latency/paging purposes.
func (it Item) size() int {
	n := len(it.Name)
	for _, a := range it.Attrs {
		n += len(a.Name) + len(a.Value) + 8
	}
	return n
}

// PutRequest describes one item write. Replace true overwrites existing
// values of the written attribute names; false appends (SimpleDB default).
type PutRequest struct {
	Item    string
	Attrs   []Attr
	Replace bool
}

// itemVersion is one committed state of an item.
type itemVersion struct {
	attrs     []Attr
	deleted   bool
	committed time.Duration
	visibleAt time.Duration
}

// Domain is one SimpleDB domain bound to a simulated environment.
type Domain struct {
	env  *sim.Env
	name string
	ep   sim.Endpoint // the request envelope; each domain is its own service partition

	mu        sync.Mutex
	items     map[string][]*itemVersion
	tombs     tombHeap              // deleted items awaiting reaping, earliest visibleAt first
	names     *sortedKeys           // cached sorted item names
	idx       map[string]*attrIndex // per-attribute secondary indexes
	forceScan bool                  // ablation: disable the indexes
	gen       uint64                // write generation; invalidates cached plans
	lastPlan  planCache             // resolved candidates of the latest query

	pmu   sync.Mutex
	plans map[string]*Query // parsed-query cache keyed by expression
}

// New creates an empty domain.
func New(env *sim.Env, name string) *Domain {
	return NewLane(env, name, 0)
}

// NewLane creates an empty domain on a specific rate-gate lane. Domains on
// distinct lanes have independent request-rate ceilings — the real service
// throttles per domain (the ~7 BatchPut/s write gate the paper measured is a
// per-domain limit), which is what makes K-way domain sharding scale the
// commit path. Lane 0 shares the environment's default SimpleDB gates.
func NewLane(env *sim.Env, name string, lane int) *Domain {
	return &Domain{
		env:   env,
		name:  name,
		ep:    env.Endpoint(name, lane),
		items: make(map[string][]*itemVersion),
		idx:   make(map[string]*attrIndex),
		plans: make(map[string]*Query),
	}
}

// SetForceScan disables the secondary indexes so every SELECT walks the
// full item table — the unindexed behaviour of the seed implementation,
// kept as an ablation knob for the indexed-vs-scan benchmarks.
func (d *Domain) SetForceScan(v bool) {
	d.mu.Lock()
	d.forceScan = v
	d.mu.Unlock()
}

// sortedNamesLocked returns the sorted name index.
func (d *Domain) sortedNamesLocked() []string { return sortedOf(&d.names, d.items) }

// Name returns the domain name used in SELECT statements.
func (d *Domain) Name() string { return d.name }

// Env returns the environment the domain charges against.
func (d *Domain) Env() *sim.Env { return d.env }

// validate checks the 1 KB name/value limits.
func validate(attrs []Attr) error {
	for _, a := range attrs {
		if len(a.Name) > MaxValueLen || len(a.Value) > MaxValueLen {
			return ErrValueTooLong
		}
	}
	return nil
}

// PutAttributes writes one item.
func (d *Domain) PutAttributes(req PutRequest) error {
	if err := validate(req.Attrs); err != nil {
		return err
	}
	return d.ep.Do(func() error { return d.putOnce(req) })
}

// putOnce is one service attempt of a put. An ambiguous fault (applied)
// commits the write and still reports the error; the protocols' puts are
// full replaces of immutable content, so a retried apply converges.
func (d *Domain) putOnce(req PutRequest) error {
	ferr, applied := d.ep.Fault(sim.OpSDBPut)
	if ferr != nil && !applied {
		return ferr
	}
	d.ep.Exec(sim.OpSDBPut, Item{Name: req.Item, Attrs: req.Attrs}.size(), 0)
	d.mu.Lock()
	d.applyLocked(req)
	d.mu.Unlock()
	return ferr
}

// BatchPutAttributes writes up to 25 items in one call. The call is charged
// the batch base latency plus a per-item increment (SimpleDB indexes every
// attribute on write, which is why batches are expensive; the calibration
// anchors on baseModel in sim/model.go give the paper's numbers).
func (d *Domain) BatchPutAttributes(reqs []PutRequest) error {
	if len(reqs) > MaxBatchItems {
		return ErrBatchTooLarge
	}
	payload := 0
	for _, r := range reqs {
		if err := validate(r.Attrs); err != nil {
			return err
		}
		payload += Item{Name: r.Item, Attrs: r.Attrs}.size()
	}
	return d.ep.Do(func() error { return d.batchPutOnce(reqs, payload) })
}

// batchPutOnce is one service attempt of a batch put (see putOnce for the
// ambiguous-fault contract).
func (d *Domain) batchPutOnce(reqs []PutRequest, payload int) error {
	ferr, applied := d.ep.Fault(sim.OpSDBBatchPut)
	if ferr != nil && !applied {
		return ferr
	}
	d.ep.Exec(sim.OpSDBBatchPut, payload, len(reqs))
	d.mu.Lock()
	for _, r := range reqs {
		d.applyLocked(r)
	}
	d.mu.Unlock()
	return ferr
}

// applyLocked commits one put as a new item version.
func (d *Domain) applyLocked(req PutRequest) {
	d.gen++
	now := d.env.Now()
	d.reapLocked(now)
	hist := d.items[req.Item]
	if len(hist) == 0 {
		d.names.add(req.Item)
	}
	var base []Attr
	if n := len(hist); n > 0 && !hist[n-1].deleted {
		base = hist[n-1].attrs
	}
	var next []Attr
	switch {
	case len(base) == 0:
		// First write of the item: nothing to carry over or replace.
	case req.Replace:
		replaced := make(map[string]bool, len(req.Attrs))
		for _, a := range req.Attrs {
			replaced[a.Name] = true
		}
		for _, a := range base {
			if !replaced[a.Name] {
				next = append(next, a)
			}
		}
	default:
		next = append(next, base...)
	}
	next = append(next, req.Attrs...)
	v := &itemVersion{attrs: next, committed: now, visibleAt: now + d.env.StalenessWindow()}
	if n := len(hist); n > 1 {
		for _, old := range hist[:n-1] {
			d.indexRemoveLocked(req.Item, old.attrs)
		}
		hist = hist[n-1:]
	}
	d.indexAddLocked(req.Item, v.attrs)
	d.items[req.Item] = append(hist, v)
}

// observeConsistent returns the latest committed version of an item — the
// strongly consistent read path (ConsistentRead), which bypasses the
// staleness window entirely.
func (d *Domain) observeConsistent(name string) *itemVersion {
	hist := d.items[name]
	if len(hist) == 0 {
		return nil
	}
	return hist[len(hist)-1]
}

// observe picks the item version a read sees at virtual time now,
// implementing eventual consistency exactly as the object store does.
func (d *Domain) observe(name string, now time.Duration) *itemVersion {
	hist := d.items[name]
	if len(hist) == 0 {
		return nil
	}
	idx := len(hist) - 1
	for idx > 0 && hist[idx].visibleAt > now && d.env.Rand().Bool(0.5) {
		idx--
	}
	v := hist[idx]
	if idx == 0 && v.visibleAt > now && d.env.Rand().Bool(0.5) {
		return nil
	}
	return v
}

// GetAttributes returns the attributes of one item.
func (d *Domain) GetAttributes(item string) (Item, error) {
	var it Item
	err := d.ep.Do(func() error {
		var err error
		it, err = d.getOnce(item)
		return err
	})
	return it, err
}

func (d *Domain) getOnce(item string) (Item, error) {
	if ferr, _ := d.ep.Fault(sim.OpSDBGet); ferr != nil {
		return Item{}, ferr
	}
	d.mu.Lock()
	v := d.observe(item, d.env.Now())
	var it Item
	ok := v != nil && !v.deleted
	if ok {
		it = Item{Name: item, Attrs: append([]Attr(nil), v.attrs...)}
	}
	d.mu.Unlock()
	payload := 0
	if ok {
		payload = it.size()
	}
	d.ep.Exec(sim.OpSDBGet, payload, 0)
	if !ok {
		return Item{}, fmt.Errorf("%w: %s", ErrNoSuchItem, item)
	}
	return it, nil
}

// DeleteAttributes removes an entire item (the only form the protocols use).
func (d *Domain) DeleteAttributes(item string) error {
	return d.ep.Do(func() error { return d.deleteOnce(item) })
}

func (d *Domain) deleteOnce(item string) error {
	ferr, applied := d.ep.Fault(sim.OpSDBDelete)
	if ferr != nil && !applied {
		return ferr
	}
	d.ep.Exec(sim.OpSDBDelete, 0, 0)
	d.deleteItems(item)
	return ferr
}

// BatchDeleteAttributes removes up to 25 entire items in one call: one gate
// admission and one billed request, charged like a BatchPutAttributes of the
// same item count (see OpSDBBatchDelete in sim/model.go). Names the domain
// does not hold are ignored, so a retried or re-run batch converges.
func (d *Domain) BatchDeleteAttributes(names []string) error {
	if len(names) > MaxBatchItems {
		return ErrBatchTooLarge
	}
	if len(names) == 0 {
		return nil
	}
	return d.ep.Do(func() error { return d.batchDeleteOnce(names) })
}

// batchDeleteOnce is one service attempt of a batch delete (see putOnce for
// the ambiguous-fault contract).
func (d *Domain) batchDeleteOnce(names []string) error {
	ferr, applied := d.ep.Fault(sim.OpSDBBatchDelete)
	if ferr != nil && !applied {
		return ferr
	}
	d.ep.Exec(sim.OpSDBBatchDelete, 0, len(names))
	d.deleteItems(names...)
	return ferr
}

// deleteItems commits a tombstone version for every named item the domain
// holds; the tombstone is eventually consistent like any other write.
func (d *Domain) deleteItems(names ...string) {
	now := d.env.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, item := range names {
		hist := d.items[item]
		if len(hist) == 0 {
			continue
		}
		d.gen++
		if n := len(hist); n > 1 {
			for _, old := range hist[:n-1] {
				d.indexRemoveLocked(item, old.attrs)
			}
			hist = hist[n-1:]
		}
		tomb := &itemVersion{deleted: true, committed: now, visibleAt: now + d.env.StalenessWindow()}
		d.items[item] = append(hist, tomb)
		heap.Push(&d.tombs, tombstone{item: item, v: tomb})
	}
	d.reapLocked(now)
}

// tombstone is a deleted item waiting for its delete to become visible to
// every read, at which point nothing can observe the item any more and
// reapLocked drops it.
type tombstone struct {
	item string
	v    *itemVersion
}

// tombHeap is a min-heap of tombstones on visibleAt (container/heap).
type tombHeap []tombstone

func (h tombHeap) Len() int           { return len(h) }
func (h tombHeap) Less(i, j int) bool { return h[i].v.visibleAt < h[j].v.visibleAt }
func (h tombHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *tombHeap) Push(x any)        { *h = append(*h, x.(tombstone)) }
func (h *tombHeap) Pop() any {
	old := *h
	n := len(old) - 1
	t := old[n]
	old[n] = tombstone{}
	*h = old[:n]
	return t
}

// reapLocked drops every item whose tombstone became visible by now: its
// history, the index postings of the version the tombstone kept observable,
// and its slot in the sorted name table. Past visibleAt both read paths
// resolve the item to its tombstone without consulting the RNG, so removing
// it changes no read's result or random stream — only how many names a
// SELECT examines and how much the domain holds. A tombstone a later put
// superseded is skipped (the item is live again).
func (d *Domain) reapLocked(now time.Duration) {
	var reaped []string
	for len(d.tombs) > 0 && d.tombs[0].v.visibleAt <= now {
		t := heap.Pop(&d.tombs).(tombstone)
		hist := d.items[t.item]
		if n := len(hist); n == 0 || hist[n-1] != t.v {
			continue
		}
		for _, old := range hist {
			d.indexRemoveLocked(t.item, old.attrs)
		}
		delete(d.items, t.item)
		reaped = append(reaped, t.item)
	}
	if len(reaped) == 0 {
		return
	}
	d.gen++ // cached plans may list the reaped names
	if d.names == nil || d.names.keys == nil {
		return
	}
	// Cut the reaped names out of the span of the name table that holds them
	// instead of filtering the whole table on the next read. The table is a
	// cache of d.items' keys, so a name no longer held is a reaped one.
	names := d.names.keys
	lo := sort.SearchStrings(names, slices.Min(reaped))
	hi := min(sort.SearchStrings(names, slices.Max(reaped))+1, len(names))
	kept := slices.DeleteFunc(names[lo:hi], func(name string) bool {
		_, held := d.items[name]
		return !held
	})
	d.names.keys = slices.Delete(names, lo+len(kept), hi)
}

// SelectPage is one page of SELECT results.
type SelectPage struct {
	Items     []Item
	NextToken string
	Bytes     int // response payload size
}

// maxCachedPlans bounds the parsed-query cache. Query workloads reuse a
// handful of expression shapes (every page of a SelectAll, every level of a
// BFS traversal), so a small cache suffices.
const maxCachedPlans = 256

// cachedParse returns the parsed form of expr, parsing at most once per
// distinct expression.
func (d *Domain) cachedParse(expr string) (*Query, error) {
	d.pmu.Lock()
	q, ok := d.plans[expr]
	d.pmu.Unlock()
	if ok {
		return q, nil
	}
	parsed, err := ParseSelect(expr)
	if err != nil {
		return nil, err
	}
	d.pmu.Lock()
	if len(d.plans) >= maxCachedPlans {
		for k := range d.plans { // evict an arbitrary entry
			delete(d.plans, k)
			break
		}
	}
	d.plans[expr] = &parsed
	d.pmu.Unlock()
	return &parsed, nil
}

// Select runs a SELECT expression (see package documentation for the
// supported grammar) returning one page; pass the previous page's NextToken
// to continue. Each page is one billed request.
func (d *Domain) Select(expr, nextToken string) (SelectPage, error) {
	q, err := d.cachedParse(expr)
	if err != nil {
		return SelectPage{}, err
	}
	return d.selectPage(q, nextToken)
}

// SelectQuery runs a programmatically built query (see the predicate
// constructors in select.go) returning one page. Callers that issue the
// same query shape repeatedly — BFS traversals rebinding IN values per
// level — reuse one Query instead of formatting and reparsing expressions.
// Each call resolves its access path afresh; a multi-page drain should use
// SelectAllQuery (or Select with one expression), which also reuses the
// resolved candidate list across pages.
func (d *Domain) SelectQuery(q Query, nextToken string) (SelectPage, error) {
	return d.selectPage(&q, nextToken)
}

// selectPage streams one page of results from the query's access path: the
// planner's index candidates when a secondary index serves the predicate,
// the sorted name table otherwise. Either way items are visited in
// ascending name order, resuming from the continuation token, and only the
// emitted page is copied out of the store.
func (d *Domain) selectPage(q *Query, nextToken string) (SelectPage, error) {
	if q.Domain != d.name {
		return SelectPage{}, fmt.Errorf("sdb: unknown domain %q in select", q.Domain)
	}
	var page SelectPage
	err := d.ep.Do(func() error {
		var err error
		page, err = d.selectPageOnce(q, nextToken)
		return err
	})
	return page, err
}

// selectPageOnce is one service attempt of a SELECT page.
func (d *Domain) selectPageOnce(q *Query, nextToken string) (SelectPage, error) {
	if ferr, _ := d.ep.Fault(sim.OpSDBSelect); ferr != nil {
		return SelectPage{}, ferr
	}
	now := d.env.Now()

	// LIMIT caps results per response (SimpleDB semantics); a NextToken
	// continues the scan on the next request either way.
	limit := q.Limit
	if limit <= 0 || limit > MaxSelectPage {
		limit = MaxSelectPage
	}

	d.mu.Lock()
	d.reapLocked(now)
	var names []string
	indexed := false
	if q.Where != nil && !d.forceScan {
		// A paginated drain re-enters with the same *Query per page; reuse
		// the resolved candidate list until a write invalidates it instead
		// of re-collecting and re-sorting the candidates once per page.
		if d.lastPlan.q == q && d.lastPlan.gen == d.gen {
			names, indexed = d.lastPlan.names, d.lastPlan.indexed
		} else {
			names, indexed = d.planLocked(q.Where)
			d.lastPlan = planCache{q: q, gen: d.gen, names: names, indexed: indexed}
		}
	}
	if !indexed {
		names = d.sortedNamesLocked()
	}
	// Skip directly past the continuation token.
	start := sort.SearchStrings(names, nextToken)
	if start < len(names) && names[start] == nextToken {
		start++
	}
	page := SelectPage{}
	examined, bytes := 0, 0
	for _, name := range names[start:] {
		examined++
		var v *itemVersion
		if q.Consistent {
			v = d.observeConsistent(name)
		} else {
			v = d.observe(name, now)
		}
		if v == nil || v.deleted {
			continue
		}
		it := Item{Name: name, Attrs: v.attrs}
		if q.Where != nil && !q.Where.eval(it) {
			continue
		}
		// The page is full once the next match arrives past the limit (or
		// past the byte cap): that match proves more results exist, so the
		// token points at the last emitted item and the page closes.
		if len(page.Items) >= limit {
			page.NextToken = page.Items[len(page.Items)-1].Name
			break
		}
		out := q.project(it)
		sz := out.size()
		if len(page.Items) > 0 && bytes+sz > maxPageBytes {
			page.NextToken = page.Items[len(page.Items)-1].Name
			break
		}
		page.Items = append(page.Items, out)
		bytes += sz
	}
	d.mu.Unlock()

	page.Bytes = bytes
	// The query engine's work scales with the items the access path
	// examined — the whole table for a scan, only the predicate's
	// candidates for an indexed path.
	d.ep.Exec(sim.OpSDBSelect, bytes, examined)
	d.env.Meter().AddItemsExamined(int64(examined))
	return page, nil
}

// SelectAll drains every page of a SELECT and reports the request count.
// The expression is parsed once, not once per page.
func (d *Domain) SelectAll(expr string) (items []Item, requests int, bytes int, err error) {
	q, err := d.cachedParse(expr)
	if err != nil {
		return nil, 0, 0, err
	}
	return d.selectAll(q)
}

// SelectAllQuery drains every page of a programmatically built query.
func (d *Domain) SelectAllQuery(q Query) (items []Item, requests int, bytes int, err error) {
	return d.selectAll(&q)
}

func (d *Domain) selectAll(q *Query) (items []Item, requests int, bytes int, err error) {
	token := ""
	for {
		page, err := d.selectPage(q, token)
		if err != nil {
			return nil, requests, bytes, err
		}
		requests++
		bytes += page.Bytes
		items = append(items, page.Items...)
		if page.NextToken == "" {
			return items, requests, bytes, nil
		}
		token = page.NextToken
	}
}

// ItemCount returns the number of live items (latest committed state).
func (d *Domain) ItemCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, hist := range d.items {
		if !hist[len(hist)-1].deleted {
			n++
		}
	}
	return n
}
