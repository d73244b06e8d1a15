// Package sdb implements the simulated cloud database service (Amazon
// SimpleDB as of its 2009/2010 public beta): a semi-structured store of
// items, each a set of multi-valued <attribute,value> pairs, with every
// attribute indexed and queryable through a SELECT interface.
//
// The limits that shaped the paper's protocols are enforced: item names,
// attribute names and values are capped at 1 KB (larger provenance values
// spill to S3 objects), BatchPutAttributes accepts at most 25 items per
// call, and SELECT responses are paginated. Reads are eventually consistent
// unless the environment runs in strict mode.
//
// Like the real service, every attribute is indexed on write: a small
// planner (plan.go) resolves each equality, IN, prefix and range value once
// through per-attribute secondary indexes (index.go) into candidate item
// ids in name order, and SELECT falls back to a streaming scan of the sorted
// name table otherwise. Candidates are re-validated against the version each
// read observes, so eventual consistency is identical on both access paths.
//
// A domain stores each distinct string once, in string tables (strtab.go)
// that keep the bytes in append-only chunks: item names in the item table,
// which hands out dense ids, and values in the attribute indexes. What grows
// with the items is indexed by those ids in paged tables (paged.go) that
// grow by whole pages and never copy what they hold: the item records, the
// slab of (attribute, value) id pairs their versions point into, one page
// per version, and each attribute's postings. None of them holds a pointer:
// what only a few items have — an older version an overwrite keeps for a
// while, the item list of a value several items share — lives out of line.
// A SELECT writes its page straight into the caller's [Result], which also
// holds the read's plan: a domain keeps no state of any one read.
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
	MaxValueLen   = 1024 // bytes per item name, attribute name or value
	MaxBatchItems = 25   // items per BatchPutAttributes/BatchDeleteAttributes call
	MaxSelectPage = 2500 // items per SELECT page
	maxPageBytes  = 1 << 20
)

// ErrValueTooLong is returned when an item name, attribute name or value
// exceeds 1 KB.
var ErrValueTooLong = errors.New("sdb: item name, attribute name or value exceeds 1KB")

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
// Domain.pairs[off : off+n]; a tombstone, which a delete commits, has no
// pairs and off == tombOff.
type version struct {
	off, n    uint32
	visibleAt time.Duration
}

// tombOff is a tombstone's off.
const tombOff = ^uint32(0)

// deleted reports whether v is a tombstone.
func (v version) deleted() bool { return v.off == tombOff }

// itemRec is the stored history of the item holding one id: its newest
// version and, while n is 2, an older one in Domain.older. Those two are
// all observe ever picks from.
type itemRec struct {
	last version
	n    uint32 // retained versions; 0 while the id is free
	// stamp counts the versions ever pushed into this slot, across reuse of
	// the id, so a tombstone can tell whether it is still the latest write.
	stamp uint32
}

// Domain is one SimpleDB domain bound to a simulated environment. The item
// table maps each name to a dense id, reusing the ids of reaped items; the
// records, the pair slab and the postings are paged tables. A version's
// pairs lie in one page (or in one run of pages, when they are more than a
// page holds): a version that does not fit the last page's rest starts a new
// page, and the skipped rest counts as dead pairs.
type Domain struct {
	env  *sim.Env
	name string
	ep   sim.Endpoint // the request envelope; each domain is its own service partition

	mu        sync.Mutex
	items     strtab                // item table: name ↔ id, and the sorted names
	recs      paged[itemRec]        // by id
	older     map[uint32]version    // by id, the older version of a record holding two
	pairs     paged[pair]           // every retained version's attributes
	dead      int                   // pairs no retained version owns, and skipped page tails
	tombs     tombHeap              // deleted items awaiting reaping, earliest visibleAt first
	idx       map[string]*attrIndex // per-attribute secondary indexes
	attrs     []*attrIndex          // the same indexes by attribute id
	putBuf    []pair                // a put's new version, staged
	forceScan bool                  // tests only: walk the item table, the indexes' reference
	gen       uint64                // write generation; a plan made at another is stale
	leaves    []leaf                // the planner's scratch: resolved leaves
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
		items: newStrtab(),
		older: make(map[uint32]version),
		idx:   make(map[string]*attrIndex),
	}
}

// pairsOf returns the slab span holding v's attributes.
func (d *Domain) pairsOf(v version) []pair { return d.pairs.span(v.off, v.n) }

// appendAttrs appends v's attributes to dst as name/value strings: the
// attribute index's name and a view of its stored value, so nothing is
// copied.
func (d *Domain) appendAttrs(dst []Attr, v version) []Attr {
	dst = slices.Grow(dst, int(v.n))
	for _, p := range d.pairsOf(v) {
		ix := d.attrs[p.attr]
		dst = append(dst, Attr{Name: ix.name, Value: ix.vals.str(p.val)})
	}
	return dst
}

// dropLocked unindexes a version leaving the retained history and counts its
// pairs dead.
func (d *Domain) dropLocked(id uint32, v version) {
	for _, p := range d.pairsOf(v) {
		d.attrs[p.attr].remove(p.val, id)
	}
	d.dead += int(v.n)
}

// trimLocked cuts an item's history down to its latest version before a new
// one is pushed.
func (d *Domain) trimLocked(id uint32) {
	if r := d.recs.at(id); r.n > 1 {
		d.dropLocked(id, d.older[id])
		delete(d.older, id)
		r.n = 1
	}
}

// pushLocked makes v the newest version of the item holding id; the caller
// has trimmed its history, whose one version, if any, becomes the older.
func (d *Domain) pushLocked(id uint32, v version) {
	r := d.recs.at(id)
	if r.n == 1 {
		d.older[id] = r.last
	}
	r.last, r.n, r.stamp = v, r.n+1, r.stamp+1
}

// minCompact is the number of dead pairs below which the slab is never
// compacted.
const minCompact = 1024

// compactLocked, called at the end of every write, rewrites the pair slab
// into fresh pages without its dead pairs once they outnumber the live
// ones, so a domain's slab stays within about twice what its retained
// versions hold. Versions are copied in id order, oldest first.
func (d *Domain) compactLocked() {
	if d.dead < minCompact || d.dead < d.pairs.n/2 {
		return
	}
	var live paged[pair]
	skipped := 0
	move := func(v version) version {
		if !v.deleted() {
			off, skip := live.grow(int(v.n))
			copy(live.span(off, v.n), d.pairsOf(v))
			v.off, skipped = off, skipped+skip
		}
		return v
	}
	for i := range d.recs.n {
		id := uint32(i)
		r := d.recs.at(id)
		if r.n > 1 {
			d.older[id] = move(d.older[id])
		}
		if r.n > 0 {
			r.last = move(r.last)
		}
	}
	d.pairs, d.dead = live, skipped
}

// Name returns the domain name used in SELECT statements.
func (d *Domain) Name() string { return d.name }

// validate checks the 1 KB name/value limits.
func validate(req PutRequest) error {
	if len(req.Item) > MaxValueLen {
		return ErrValueTooLong
	}
	for _, a := range req.Attrs {
		if len(a.Name) > MaxValueLen || len(a.Value) > MaxValueLen {
			return ErrValueTooLong
		}
	}
	return nil
}

// PutAttributes writes one item.
func (d *Domain) PutAttributes(req PutRequest) error {
	if err := validate(req); err != nil {
		return err
	}
	reqs := []PutRequest{req}
	return d.ep.Do(func() error { return d.putOnce(sim.OpSDBPut, reqs, Item{Name: req.Item, Attrs: req.Attrs}.size(), 0) })
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
		if err := validate(r); err != nil {
			return err
		}
		payload += Item{Name: r.Item, Attrs: r.Attrs}.size()
	}
	return d.ep.Do(func() error { return d.putOnce(sim.OpSDBBatchPut, reqs, payload, len(reqs)) })
}

// putOnce is one service attempt of a put of reqs, op charged for payload
// bytes and units items. An ambiguous fault (applied) commits the write and
// still reports the error; the protocols' puts are full replaces of
// immutable content, so a retried apply converges.
func (d *Domain) putOnce(op sim.OpKind, reqs []PutRequest, payload, units int) error {
	ferr, applied := d.ep.Fault(op)
	if ferr != nil && !applied {
		return ferr
	}
	d.ep.Exec(op, payload, units)
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
	id := d.items.intern(req.Item) // a new name takes a reaped item's id first
	if int(id) == d.recs.n {
		d.recs.grow(1)
	}
	// Trim before interning: the dropped version may hold the last
	// reference to a value, whose id must not be handed to the new one.
	d.trimLocked(id)
	r := d.recs.at(id)
	var base []pair
	if r.n > 0 && !r.last.deleted() {
		base = d.pairsOf(r.last)
	}
	// The new version is the put's pairs after those it carries over from
	// base (all of them, or a replace's other attributes): staged as put
	// then carried, and laid out in one page the other way round.
	buf := d.putBuf[:0]
	for _, a := range req.Attrs {
		ix := d.attrLocked(a.Name)
		buf = append(buf, pair{attr: ix.id, val: ix.intern(a.Value)})
	}
	put := len(buf)
	for _, p := range base {
		if !req.Replace || !slices.ContainsFunc(buf[:put], func(q pair) bool { return q.attr == p.attr }) {
			buf = append(buf, p)
		}
	}
	d.putBuf = buf
	off, skip := d.pairs.grow(len(buf))
	v := version{off: off, n: uint32(len(buf)), visibleAt: now + d.env.StalenessWindow()}
	span := d.pairsOf(v)
	copy(span[copy(span, buf[put:]):], buf[:put])
	d.dead += skip
	for _, p := range span {
		d.attrs[p.attr].add(p.val, id)
	}
	d.pushLocked(id, v)
	d.compactLocked()
}

// observe returns the version of the item holding id that a read sees at
// virtual time now, implementing eventual consistency exactly as the object
// store does: while the newest version is not yet visible, a first coin
// decides whether the read sees the older one instead, and while the version
// it settled on is not visible, a second coin whether it sees none, which
// observe returns as a tombstone. A consistent read (ConsistentRead) takes
// the newest version, bypassing the staleness window entirely.
func (d *Domain) observe(id uint32, now time.Duration, consistent bool) version {
	r := d.recs.at(id)
	v := r.last
	if consistent || v.visibleAt <= now {
		return v
	}
	if r.n > 1 {
		if !d.env.Rand().Bool(0.5) {
			return v
		}
		v = d.older[id]
	}
	if v.visibleAt > now && d.env.Rand().Bool(0.5) {
		return version{off: tombOff}
	}
	return v
}

// GetAttributes returns the attributes of one item.
func (d *Domain) GetAttributes(item string) (Item, error) {
	return sim.Call(d.ep, func() (Item, error) { return d.getOnce(item) })
}

func (d *Domain) getOnce(item string) (Item, error) {
	if ferr, _ := d.ep.Fault(sim.OpSDBGet); ferr != nil {
		return Item{}, ferr
	}
	d.mu.Lock()
	v := version{off: tombOff}
	if id, held, _ := d.items.lookup(item); held {
		v = d.observe(id, d.env.Now(), false)
	}
	var it Item
	ok := !v.deleted()
	if ok {
		it = Item{Name: item, Attrs: d.appendAttrs(make([]Attr, 0, v.n), v)}
	}
	d.mu.Unlock()
	d.ep.Exec(sim.OpSDBGet, it.size(), 0) // a miss ships nothing: the zero Item's size is 0
	if !ok {
		return Item{}, fmt.Errorf("%w: %s", ErrNoSuchItem, item)
	}
	return it, nil
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
		id, held, _ := d.items.lookup(item)
		if !held {
			continue
		}
		d.gen++
		d.trimLocked(id)
		v := version{off: tombOff, visibleAt: now + d.env.StalenessWindow()}
		d.pushLocked(id, v)
		heap.Push(&d.tombs, tombstone{id: id, stamp: d.recs.at(id).stamp, visibleAt: v.visibleAt})
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
// and its name, which leaves the item table and its sorted view; its id
// goes back to the table's free list.
// Past visibleAt both read paths resolve the item to its tombstone without
// consulting the RNG, so removing it changes no read's result or random
// stream — only how many names a SELECT examines and how much the domain
// holds. A tombstone a later put superseded is skipped (the item is live
// again).
func (d *Domain) reapLocked(now time.Duration) {
	var reaped []uint32
	for len(d.tombs) > 0 && d.tombs[0].visibleAt <= now {
		t := heap.Pop(&d.tombs).(tombstone)
		r := d.recs.at(t.id)
		if r.stamp != t.stamp {
			continue
		}
		d.trimLocked(t.id)
		d.dropLocked(t.id, r.last)
		*r = itemRec{stamp: r.stamp}
		reaped = append(reaped, t.id)
	}
	if len(reaped) > 0 {
		d.items.remove(reaped...)
		d.gen++ // a plan may list the reaped ids, which intern reuses
	}
}

// Result is what a SELECT returns: one page (SelectQuery, Select), whose
// NextToken continues it, or every page of a drain. Its items are one slab
// and their attributes another, each item's Attrs capacity-capped (nil for
// none) so an append never writes the next item's; names and values view
// the store's append-only bytes, so nothing aliases domain state a write
// changes. A Result is reusable: a drain into it replaces what it held in
// the storage the last one left, so the items and the slabs behind them are
// the caller's until the next drain into the same Result or its Reset, and
// no longer; a caller keeps the strings, never the slices. The pages of one
// drain share its plan (plan.go), which nothing else reads.
type Result struct {
	Items     []Item
	NextToken string
	Requests  int // SELECT requests made
	Bytes     int // response payload moved

	attrs   []Attr     // the slab Items' attributes are cut from
	plan    candidates // the drain's candidates on one domain
	err     error      // a scatter shard's drain error
	targets []target   // the shards a scatter asks
	subs    []*Result  // a scatter's per-shard buffers, in targets order
}

// Reset empties r for reuse, zeroing everything it held so that a slice a
// caller kept past its drain reads empty strings rather than another
// drain's items; its plan goes, its storage stays for the next drain.
func (r *Result) Reset() {
	clear(r.Items)
	clear(r.attrs)
	clear(r.targets)
	r.Items, r.attrs, r.targets = r.Items[:0], r.attrs[:0], r.targets[:0]
	r.NextToken, r.Requests, r.Bytes, r.err = "", 0, 0, nil
	r.plan = candidates{ids: r.plan.ids[:0], missing: r.plan.missing[:0]}
	for _, sub := range r.subs {
		sub.Reset()
	}
}

// SelectQuery runs a programmatically built query (see the predicate
// constructors in select.go) returning one page. Callers that issue the
// same query shape repeatedly — BFS traversals rebinding IN values per
// level — reuse one Query instead of formatting and reparsing expressions.
func (d *Domain) SelectQuery(q Query, nextToken string) (Result, error) {
	var r Result
	if q.Domain != d.name {
		return r, fmt.Errorf("sdb: unknown domain %q in select", q.Domain)
	}
	err := d.selectPage(&q, q.Where, nextToken, &r)
	return r, err
}

// selectPage streams one page of q, where in place of q.Where, into r.
func (d *Domain) selectPage(q *Query, where *Node, nextToken string, r *Result) error {
	return d.ep.Do(func() error { return d.selectPageOnce(q, where, nextToken, r) })
}

// selectPageOnce is one service attempt of a SELECT page, appended to r's
// items and attribute slab and counted in its requests and bytes, from its
// access path: the planner's candidates when an index serves the predicate,
// the sorted name table otherwise. Either way items are visited in name
// order from the continuation token. A rejected attempt writes nothing.
func (d *Domain) selectPageOnce(q *Query, where *Node, nextToken string, r *Result) error {
	if ferr, _ := d.ep.Fault(sim.OpSDBSelect); ferr != nil {
		return ferr
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
	// The planner's candidates, or else every held id: ids in name order.
	ids, indexed := []uint32(nil), false
	if where != nil && !d.forceScan {
		ids, indexed = d.planLocked(where, &r.plan)
	}
	if !indexed {
		ids = d.items.sorted()
	}
	// Skip directly past the continuation token.
	start := sort.Search(len(ids), func(i int) bool { return r.plan.name(d, ids[i]) >= nextToken })
	if start < len(ids) && r.plan.name(d, ids[start]) == nextToken {
		start++
	}
	// Each emitted item and its projected attributes go straight into r;
	// the examined version's attributes are laid out after the last emitted
	// item's for the predicate (an itemName()-only scan reads none) and cut
	// back when it fails. An item's Attrs view the slab as it was when the
	// item was emitted, so a slab that grows later leaves them intact.
	next, examined, emitted, bytes := "", 0, 0, 0
	items, attrs := r.Items, r.attrs
	if indexed { // the candidates bound the page: a fresh slab grows once
		items = slices.Grow(items, min(len(ids)-start, limit))
	}
	needAttrs := where != nil || !q.ItemOnly
	for _, id := range ids[start:] {
		examined++
		if id&missingTag != 0 {
			continue
		}
		v := d.observe(id, now, q.Consistent)
		if v.deleted() {
			continue
		}
		it, mark := Item{Name: d.items.str(id)}, len(attrs)
		if needAttrs {
			attrs = d.appendAttrs(attrs, v)
			it.Attrs = attrs[mark:]
		}
		if where != nil && !where.eval(it) {
			attrs = attrs[:mark]
			continue
		}
		switch { // the field selection, compacted in place
		case q.ItemOnly:
			attrs = attrs[:mark]
		case q.Fields != nil:
			attrs = attrs[:mark+len(slices.DeleteFunc(attrs[mark:], func(a Attr) bool { return !slices.Contains(q.Fields, a.Name) }))]
		}
		it.Attrs = nil
		if end := len(attrs); end > mark {
			it.Attrs = attrs[mark:end:end]
		}
		// The page is full once the next match arrives past the limit (or
		// past the byte cap): that match proves more results exist, so the
		// token points at the last emitted item and the page closes.
		sz := it.size()
		if emitted >= limit || emitted > 0 && bytes+sz > maxPageBytes {
			next, attrs = items[len(items)-1].Name, attrs[:mark]
			break
		}
		items, emitted, bytes = append(items, it), emitted+1, bytes+sz
	}
	r.Items, r.attrs, r.NextToken, r.Requests, r.Bytes = items, attrs, next, r.Requests+1, r.Bytes+bytes
	d.mu.Unlock()

	// The query engine's work scales with the items the access path
	// examined — the whole table for a scan, only the predicate's
	// candidates for an indexed path.
	d.ep.Exec(sim.OpSDBSelect, bytes, examined)
	d.env.Meter().AddItemsExamined(int64(examined))
	return nil
}

// Drain drains every page of a programmatically built query into r,
// replacing what r held, with DomainView.Drain's contract: r.Items views
// r's storage, which the next drain into r reuses (see Result for how long).
func (d *Domain) Drain(q Query, r *Result) error {
	r.Reset()
	if q.Domain != d.name {
		return fmt.Errorf("sdb: unknown domain %q in select", q.Domain)
	}
	return d.drain(&q, q.Where, r)
}

// drain appends every page of q, where in place of q.Where, to r: one page
// after another into the same slabs, planned once into r unless a write
// moves the generation between pages. r holds no other read's plan.
func (d *Domain) drain(q *Query, where *Node, r *Result) error {
	for {
		if err := d.selectPage(q, where, r.NextToken, r); err != nil || r.NextToken == "" {
			return err
		}
	}
}

// ItemCount returns the number of live items (latest committed state).
func (d *Domain) ItemCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for i := range d.recs.n {
		if r := d.recs.at(uint32(i)); r.n > 0 && !r.last.deleted() {
			n++
		}
	}
	return n
}
