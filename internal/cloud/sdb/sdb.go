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
//
// A domain stores each distinct string once: item names in an item table
// that hands out dense ids, values in the attribute indexes that intern
// them. Versions, item records and postings lists are ids in pointer-free
// slices, so a large domain costs the collector little to mark; reads copy
// attributes out only for the items they return.
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

// pair is one attribute of a stored version: the attribute's id in
// Domain.attrs and the value's id in that attribute's index.
type pair struct{ attr, val uint32 }

// version is one committed state of an item. Its attributes are the pairs
// Domain.pairs[off : off+n].
type version struct {
	off, n    uint32
	visibleAt time.Duration
	deleted   bool
}

// itemRec is the stored history of the item holding one id: at most two
// retained versions, oldest first, which is all observe ever picks from.
type itemRec struct {
	hist [2]version
	n    uint8 // retained versions; 0 while the id is free
	// stamp counts the versions ever pushed into this slot, across reuse of
	// the id, so a tombstone can tell whether it is still the latest write.
	stamp uint32
}

// latest returns the newest retained version.
func (r *itemRec) latest() *version { return &r.hist[r.n-1] }

// push appends v as the newest version; the caller has trimmed the history
// to at most one version.
func (r *itemRec) push(v version) {
	r.hist[r.n] = v
	r.n++
	r.stamp++
}

// Domain is one SimpleDB domain bound to a simulated environment.
//
// The item table maps each name to a dense id. What grows with the item
// count is indexed by that id and holds no pointers: the records, the slab
// of (attribute, value) pairs their versions point into, and the postings
// lists. The strings — each name once, each distinct value once per
// attribute (index.go) — are the only things the collector marks per item.
type Domain struct {
	env  *sim.Env
	name string
	ep   sim.Endpoint // the request envelope; each domain is its own service partition

	mu        sync.Mutex
	ids       map[string]uint32     // item table: name → id
	nameOf    []string              // by id; "" while the id is free
	recs      []itemRec             // by id
	free      []uint32              // ids of reaped items, reused before new ones
	pairs     []pair                // every retained version's attributes
	dead      int                   // pairs no retained version owns any more
	tombs     tombHeap              // deleted items awaiting reaping, earliest visibleAt first
	names     *sortedKeys           // cached sorted item names
	idx       map[string]*attrIndex // per-attribute secondary indexes
	attrs     []*attrIndex          // the same indexes by attribute id
	putBuf    []pair                // a put's interned attributes
	evalBuf   []Attr                // the examined version's attributes during a SELECT
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
		ids:   make(map[string]uint32),
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
func (d *Domain) sortedNamesLocked() []string { return sortedOf(&d.names, d.ids) }

// pairsOf returns the slab span holding v's attributes.
func (d *Domain) pairsOf(v *version) []pair { return d.pairs[v.off : v.off+v.n] }

// appendAttrs appends v's attributes to dst as name/value strings: the
// attribute index's name and its interned value, so nothing is copied.
func (d *Domain) appendAttrs(dst []Attr, v *version) []Attr {
	for _, p := range d.pairsOf(v) {
		ix := d.attrs[p.attr]
		dst = append(dst, Attr{Name: ix.name, Value: ix.ents[p.val].value})
	}
	return dst
}

// newIDLocked enters name into the item table, reusing a reaped id first.
func (d *Domain) newIDLocked(name string) uint32 {
	var id uint32
	if n := len(d.free); n > 0 {
		id, d.free = d.free[n-1], d.free[:n-1]
		d.nameOf[id] = name
	} else {
		id = uint32(len(d.recs))
		d.recs = append(d.recs, itemRec{})
		d.nameOf = append(d.nameOf, name)
	}
	d.ids[name] = id
	d.names.add(name)
	return id
}

// dropLocked unindexes a version leaving the retained history and counts its
// pairs dead.
func (d *Domain) dropLocked(id uint32, v *version) {
	d.indexRemoveLocked(id, d.pairsOf(v))
	d.dead += int(v.n)
}

// trimLocked cuts an item's history down to its latest version before a new
// one is pushed.
func (d *Domain) trimLocked(id uint32) {
	r := &d.recs[id]
	if r.n > 1 {
		d.dropLocked(id, &r.hist[0])
		r.hist[0], r.hist[1] = r.hist[1], version{}
		r.n = 1
	}
}

// minCompact is the number of dead pairs below which the slab is never
// compacted.
const minCompact = 1024

// compactLocked, called at the end of every write, rewrites the pair slab
// without its dead pairs once they outnumber the live ones, so a domain's
// slab stays within about twice what its retained versions hold. Versions
// are copied in id order.
func (d *Domain) compactLocked() {
	if d.dead < minCompact || d.dead < len(d.pairs)/2 {
		return
	}
	live := make([]pair, 0, len(d.pairs)-d.dead)
	for i := range d.recs {
		r := &d.recs[i]
		for j := range r.hist[:r.n] {
			v := &r.hist[j]
			off := uint32(len(live))
			live = append(live, d.pairsOf(v)...)
			v.off = off
		}
	}
	d.pairs, d.dead = live, 0
}

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
	id, held := d.ids[req.Item]
	if !held {
		id = d.newIDLocked(req.Item)
	}
	// Trim before interning: the dropped version may hold the last
	// reference to a value, whose id must not be handed to the new one.
	d.trimLocked(id)
	var base []pair
	if r := &d.recs[id]; r.n > 0 && !r.latest().deleted {
		base = d.pairsOf(r.latest())
	}
	put := d.putBuf[:0]
	for _, a := range req.Attrs {
		ix := d.attrLocked(a.Name)
		put = append(put, pair{attr: ix.id, val: ix.intern(a.Value)})
	}
	d.putBuf = put
	off := uint32(len(d.pairs))
	switch {
	case len(base) == 0:
		// First write of the item: nothing to carry over or replace.
	case req.Replace:
		for _, p := range base {
			if !slices.ContainsFunc(put, func(q pair) bool { return q.attr == p.attr }) {
				d.pairs = append(d.pairs, p)
			}
		}
	default:
		d.pairs = append(d.pairs, base...)
	}
	d.pairs = append(d.pairs, put...)
	v := version{off: off, n: uint32(len(d.pairs)) - off, visibleAt: now + d.env.StalenessWindow()}
	d.indexAddLocked(id, d.pairsOf(&v))
	d.recs[id].push(v)
	d.compactLocked()
}

// observe picks the version of the item holding id that a read sees at
// virtual time now, implementing eventual consistency exactly as the object
// store does; a consistent read (ConsistentRead) takes the latest committed
// version, bypassing the staleness window entirely. The result points into
// the record table and is valid until the next write.
func (d *Domain) observe(id uint32, now time.Duration, consistent bool) *version {
	r := &d.recs[id]
	if consistent {
		return r.latest()
	}
	idx := int(r.n) - 1
	for idx > 0 && r.hist[idx].visibleAt > now && d.env.Rand().Bool(0.5) {
		idx--
	}
	v := &r.hist[idx]
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
	var v *version
	if id, held := d.ids[item]; held {
		v = d.observe(id, d.env.Now(), false)
	}
	var it Item
	ok := v != nil && !v.deleted
	if ok {
		it = Item{Name: item, Attrs: d.appendAttrs(make([]Attr, 0, v.n), v)}
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
		id, held := d.ids[item]
		if !held {
			continue
		}
		d.gen++
		d.trimLocked(id)
		r := &d.recs[id]
		r.push(version{deleted: true, visibleAt: now + d.env.StalenessWindow()})
		heap.Push(&d.tombs, tombstone{id: id, stamp: r.stamp, visibleAt: r.latest().visibleAt})
	}
	d.reapLocked(now)
	d.compactLocked()
}

// tombstone is a deleted item waiting for its delete to become visible to
// every read, at which point nothing can observe the item any more and
// reapLocked drops it. stamp is the record's stamp right after the delete:
// any later write to the id moves it on.
type tombstone struct {
	id, stamp uint32
	visibleAt time.Duration
}

// tombHeap is a min-heap of tombstones on visibleAt (container/heap).
type tombHeap []tombstone

func (h tombHeap) Len() int           { return len(h) }
func (h tombHeap) Less(i, j int) bool { return h[i].visibleAt < h[j].visibleAt }
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
// and its slot in the sorted name table; its id goes back to the free list.
// Past visibleAt both read paths resolve the item to its tombstone without
// consulting the RNG, so removing it changes no read's result or random
// stream — only how many names a SELECT examines and how much the domain
// holds. A tombstone a later put superseded is skipped (the item is live
// again).
func (d *Domain) reapLocked(now time.Duration) {
	var reaped []string
	for len(d.tombs) > 0 && d.tombs[0].visibleAt <= now {
		t := heap.Pop(&d.tombs).(tombstone)
		r := &d.recs[t.id]
		if r.stamp != t.stamp {
			continue
		}
		for i := range r.hist[:r.n] {
			d.dropLocked(t.id, &r.hist[i])
		}
		*r = itemRec{stamp: r.stamp}
		name := d.nameOf[t.id]
		delete(d.ids, name)
		d.nameOf[t.id] = ""
		d.free = append(d.free, t.id)
		reaped = append(reaped, name)
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
	// cache of the item table's keys, so a name no longer held is a reaped
	// one.
	names := d.names.keys
	lo := sort.SearchStrings(names, slices.Min(reaped))
	hi := min(sort.SearchStrings(names, slices.Max(reaped))+1, len(names))
	kept := slices.DeleteFunc(names[lo:hi], func(name string) bool {
		_, held := d.ids[name]
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
	// An itemName()-only scan reads no attributes; otherwise the examined
	// version's attributes are laid out in one buffer reused across items,
	// and only the emitted page is copied out (project).
	needAttrs := q.Where != nil || !q.ItemOnly
	for _, name := range names[start:] {
		examined++
		id, held := d.ids[name]
		if !held {
			continue
		}
		v := d.observe(id, now, q.Consistent)
		if v == nil || v.deleted {
			continue
		}
		it := Item{Name: name}
		if needAttrs {
			d.evalBuf = d.appendAttrs(d.evalBuf[:0], v)
			it.Attrs = d.evalBuf
		}
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
	for i := range d.recs {
		if r := &d.recs[i]; r.n > 0 && !r.latest().deleted {
			n++
		}
	}
	return n
}
