package sdb

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"passcloud/internal/par"
	"passcloud/internal/resilient"
	"passcloud/internal/sim"
)

// DomainSet is a K-way sharded set of domains acting as one logical domain.
// Items are partitioned by the uuid prefix of their name (everything before
// the first '_', so every version of an object shares a shard), each shard
// being a distinct service domain with its own write-rate ceiling (its own
// gate lane). A K-way set therefore absorbs K times the BatchPutAttributes
// rate of a single domain — the paper's ~7 batch-calls-per-second write gate
// is a per-domain limit and the hard floor of the single-domain commit path.
//
// The embedded sim.EpochSet owns the domains, their naming ("prov-i"; a set
// created at K == 1 keeps the bare name for shard 0), the epoch-versioned
// placement directory and the reshard lifecycle, so the set can reshard live;
// what is left here is how a database routes. During a migration every write
// lands on the union of the item's active- and target-epoch homes (the
// double-write window) and every read consults the same union, merging with
// the usual canonical name-order merge — duplicates from the window collapse
// because provenance items are immutable (a put of an existing name rewrites
// identical content, the same invariant the read cache relies on). Reads
// register against the epoch barrier, so the resharder's GC waits for queries
// that captured their routing view before the window opened instead of
// deleting data out from under them.
//
// Reads route the same way writes do: a GetAttributes goes to the item's home
// shard(s), and every SELECT through one planner (DomainView.targets) — to
// the home shard(s) of the route keys its itemName() predicate pins or,
// pinning none, to every live shard in parallel. The per-shard pages merge by
// name: each shard streams its items in ascending name order, so the merge
// reproduces exactly the canonical order a single domain would return, and
// query results are byte-identical across shard counts and across migration
// states.
//
// Queries name the logical domain; the planner rewrites them to the shard's
// service domain before dispatch.
type DomainSet struct {
	*sim.EpochSet[*Domain]
	env *sim.Env

	forceScan atomic.Bool // sticky ablation flag: a domain minted mid-flight starts with it
}

// NewSet creates a K-way domain set. k < 1 is clamped to 1; k == 1 yields a
// single domain named base (the seed topology).
func NewSet(env *sim.Env, base string, k int) *DomainSet {
	s := &DomainSet{env: env}
	s.EpochSet = sim.NewEpochSet(base, k, func(name string, lane int) *Domain {
		d := NewLane(env, name, lane)
		d.SetForceScan(s.forceScan.Load())
		return d
	})
	return s
}

// Env returns the environment the set charges against.
func (s *DomainSet) Env() *sim.Env { return s.env }

// RouteKey extracts the routing key from an item name: the uuid prefix of a
// uuid_version name, or the whole name. Routing on the uuid keeps every
// version of an object in one shard, so per-object reads never scatter.
func RouteKey(item string) string {
	if i := strings.IndexByte(item, '_'); i >= 0 {
		return item[:i]
	}
	return item
}

// ShardForItem routes an item name to its active-epoch home shard.
func (s *DomainSet) ShardForItem(item string) int { return s.Directory().Route(RouteKey(item)) }

// ShardForKey routes a raw routing key (an object uuid) to its active-epoch
// home shard.
func (s *DomainSet) ShardForKey(key string) int { return s.Directory().Route(key) }

// HomesForItem returns every shard that may hold the item under the current
// routing state: the active home first, plus the target-epoch home during a
// migration's double-write window. Commit notices carry it so subscribers
// can tell where an invalidated item lives mid-reshard.
func (s *DomainSet) HomesForItem(item string) []int {
	return s.View().homesForItem(item)
}

// SetForceScan toggles the index-disabling ablation on every shard, present
// and future. The flag is stored before the shards are listed: a domain
// minted meanwhile either reads it or is in the list.
func (s *DomainSet) SetForceScan(v bool) {
	s.forceScan.Store(v)
	for _, d := range s.EpochSet.View().Shards {
		d.SetForceScan(v)
	}
}

// beginWrite captures the routing view a write will use and registers the
// write against that view's generation; the returned release must be called
// once the write is applied.
func (s *DomainSet) beginWrite() (*DomainView, func()) {
	ev, release := s.BeginWrite()
	return s.viewFrom(ev), release
}

// ---------------------------------------------------------------------------
// Views. A DomainView is one coherent snapshot of the routing state — epoch
// pair plus shard list — so a multi-step operation (a BFS traversal, a put
// fan-out) cannot straddle a cutover.

// DomainView is an immutable routing snapshot of a DomainSet. All reads on
// a view route against the epochs captured at creation.
type DomainView struct {
	set    *DomainSet
	shards []*Domain
	active sim.DirEpoch
	target *sim.DirEpoch
}

// viewFrom materializes a DomainView for an epoch snapshot.
func (s *DomainSet) viewFrom(ev sim.EpochView[*Domain]) *DomainView {
	return &DomainView{set: s, shards: ev.Shards, active: ev.Active, target: ev.Target}
}

// View captures the current routing state without barrier registration —
// for metrics and display only. Multi-step reads that GC must not race use
// AcquireView.
func (s *DomainSet) View() *DomainView { return s.viewFrom(s.EpochSet.View()) }

// AcquireView captures the current routing state and registers the read
// against the epoch barrier; the release must be called when the read
// finishes (the resharder's GC waits for it). Never run a reshard
// synchronously from inside the acquire window — it would wait on itself.
func (s *DomainSet) AcquireView() (*DomainView, func()) {
	ev, release := s.BeginRead()
	return s.viewFrom(ev), release
}

// Base returns the logical domain name queries address.
func (v *DomainView) Base() string { return v.set.Base() }

// Shards reports the number of live shards in this view.
func (v *DomainView) Shards() int { return len(v.shards) }

// Migrating reports whether the view straddles a double-write window.
func (v *DomainView) Migrating() bool { return v.target != nil }

// Epoch returns the active directory epoch id this view routes by. Cached
// observations derived through a view are tagged with it, so a cache can tell
// when a reshard cutover has invalidated the placement they were read under.
func (v *DomainView) Epoch() int { return v.active.ID }

// homesForItem returns every shard that may hold the item, active home first
// (the shared double-write-set rule, evaluated against this view's epochs).
func (v *DomainView) homesForItem(item string) []int {
	return sim.HomesFor(v.active, v.target, RouteKey(item))
}

// GetAttributes reads one item from its home shard(s): the active home
// first, falling back to the target home during a migration (a fresh item
// double-written mid-copy may be observable there first).
func (v *DomainView) GetAttributes(item string) (Item, error) {
	var lastErr error
	for _, h := range v.homesForItem(item) {
		it, err := v.shards[h].GetAttributes(item)
		if err == nil {
			return it, nil
		}
		lastErr = err
	}
	return Item{}, lastErr
}

// target is one shard's share of a planned read, q addressed to that shard.
type target struct {
	shard int
	q     Query
}

// targets is the read planner: the shards that can hold a match for q, in
// shard order, and what each is asked. Item name → shard is a pure function
// of the view (RouteKey + the epoch pair), so a predicate whose top-level
// itemName() conjunct pins route keys (see routePins) goes to the union of
// homesForItem over the pinned names only — both epoch homes inside a
// double-write window, whose duplicates the merge collapses — with an IN
// list cut down to the names each shard can hold. Every other predicate,
// and a one-shard view, gets every live shard.
func (v *DomainView) targets(q Query) ([]target, error) {
	if q.Domain != v.set.Base() {
		return nil, fmt.Errorf("sdb: unknown domain %q in select", q.Domain)
	}
	conj, pins := routePins(q.Where)
	var held [][]string // the pinned names each shard can hold; nil asks every shard
	if conj != nil && len(v.shards) > 1 {
		held = make([][]string, len(v.shards))
		for _, p := range pins {
			for _, h := range v.homesForItem(p) {
				held[h] = append(held[h], p)
			}
		}
	}
	ts := make([]target, 0, len(v.shards))
	for i, d := range v.shards {
		sq := q
		sq.Domain = d.Name()
		switch {
		case held == nil:
		case len(held[i]) == 0:
			continue
		case conj.op == "in" && len(held[i]) < len(pins):
			sq.Where = q.Where.with(conj, In(ItemNameKey, held[i]...))
		}
		ts = append(ts, target{i, sq})
	}
	return ts, nil
}

// routePins finds the first top-level conjunct of a predicate that confines
// its matches to known route keys — itemName() =, IN, or LIKE 'prefix%' —
// and returns it with the names (or the one name prefix) it pins. A pin must
// reach past the route key's '_': a shorter LIKE prefix spans keys and a
// name without the separator is no uuid_version item name, so either leaves
// the read on every shard, as do OR, !=, ranges and other attributes.
func routePins(n *Node) (*Node, []string) {
	if n == nil {
		return nil, nil
	}
	if n.op == "and" {
		if c, pins := routePins(n.left); c != nil {
			return c, pins
		}
		return routePins(n.right)
	}
	var pins []string
	switch {
	case n.attr != ItemNameKey:
	case n.op == "=":
		pins = []string{n.value}
	case n.op == "in":
		pins = n.values
	case n.op == "like":
		if prefix, ok := likePrefix(n.value); ok {
			pins = []string{prefix}
		}
	}
	if len(pins) == 0 || slices.ContainsFunc(pins, func(p string) bool { return !strings.Contains(p, "_") }) {
		return nil, nil
	}
	return n, pins
}

// with returns the predicate with its top-level conjunct old replaced by
// repl, copying the AND nodes: the shared original tree is never written.
func (n *Node) with(old, repl *Node) *Node {
	if n == old {
		return repl
	}
	if n.op != "and" {
		return n
	}
	return &Node{op: "and", left: n.left.with(old, repl), right: n.right.with(old, repl)}
}

// SelectAllQuery drains q against the shards targets names — one inline,
// several in parallel — and merges the results by item name into the
// canonical single-domain order; request and byte counts are summed.
func (v *DomainView) SelectAllQuery(q Query) (items []Item, requests int, bytes int, err error) {
	ts, err := v.targets(q)
	if err != nil {
		return nil, 0, 0, err
	}
	type result struct {
		items       []Item
		reqs, bytes int
	}
	results, errs := make([]result, len(ts)), make([]error, len(ts))
	// Each per-shard drain is hedged: if the shard straggles (a
	// fault-backed-off page, a slow replica) past the hedge delay, a
	// duplicate drain races it and the first result wins; drains are
	// idempotent reads, so the loser is discarded harmlessly. A one-shard
	// view, the seed topology, stays unhedged and priced as Table 5 was.
	var res *resilient.Client
	if len(v.shards) > 1 {
		res = resilient.Of(v.set.env)
	}
	drain := func(i int) {
		d := v.shards[ts[i].shard]
		results[i], errs[i] = resilient.Hedged(res, d.Name(), func() (r result, err error) {
			r.items, r.reqs, r.bytes, err = d.selectAll(&ts[i].q)
			return r, err
		})
	}
	if len(ts) == 1 {
		drain(0)
		return results[0].items, results[0].reqs, results[0].bytes, errs[0]
	}
	var wg sync.WaitGroup
	for i := range ts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain(i)
		}()
	}
	wg.Wait()
	lists := make([][]Item, 0, len(results))
	for i, r := range results {
		if errs[i] != nil {
			return nil, 0, 0, errs[i]
		}
		requests += r.reqs
		bytes += r.bytes
		lists = append(lists, r.items)
	}
	return mergeByName(lists), requests, bytes, nil
}

// SelectAll is SelectAllQuery for a SELECT expression, parsed once through
// shard 0's parsed-query cache.
func (v *DomainView) SelectAll(expr string) (items []Item, requests int, bytes int, err error) {
	q, err := v.shards[0].cachedParse(expr)
	if err != nil {
		return nil, 0, 0, err
	}
	return v.SelectAllQuery(*q)
}

// Select runs one page of a SELECT expression. The planned shards are
// drained in shard order — the continuation token names the shard the next
// page reads — so pages arrive shard-grouped rather than globally
// name-ordered; callers needing the canonical order (or migration-window
// dedup) use SelectAll/SelectAllQuery.
func (v *DomainView) Select(expr, nextToken string) (SelectPage, error) {
	q, err := v.shards[0].cachedParse(expr) // a paged drain re-enters per page
	if err != nil {
		return SelectPage{}, err
	}
	ts, err := v.targets(*q)
	if err != nil {
		return SelectPage{}, err
	}
	i, inner := 0, ""
	if nextToken != "" {
		var shard int
		_, err := fmt.Sscanf(nextToken, "s%d|", &shard)
		if i = slices.IndexFunc(ts, func(t target) bool { return t.shard == shard }); err != nil || i < 0 {
			return SelectPage{}, fmt.Errorf("sdb: bad continuation token %q", nextToken)
		}
		inner = nextToken[strings.IndexByte(nextToken, '|')+1:]
	}
	page, err := v.shards[ts[i].shard].selectPage(&ts[i].q, inner)
	if err != nil {
		return SelectPage{}, err
	}
	switch {
	case page.NextToken != "":
		page.NextToken = fmt.Sprintf("s%d|%s", ts[i].shard, page.NextToken)
	case i+1 < len(ts):
		page.NextToken = fmt.Sprintf("s%d|", ts[i+1].shard)
	}
	return page, nil
}

// ---------------------------------------------------------------------------
// DomainSet operations: each captures a fresh view (writes register against
// the write barrier, reads against the read barrier).

// PutAttributes writes one item to every home the double-write window
// requires (exactly one outside a migration).
func (s *DomainSet) PutAttributes(req PutRequest) error {
	v, done := s.beginWrite()
	defer done()
	for _, h := range v.homesForItem(req.Item) {
		if err := v.shards[h].PutAttributes(req); err != nil {
			return err
		}
	}
	return nil
}

// BatchPutAttributes writes up to 25 items, splitting the batch by home
// shard: each shard receives one call carrying its items. With K == 1 this
// is exactly one service call; with K > 1 a mixed batch becomes up to K
// smaller calls (the commit path avoids that by filling per-shard batches
// before calling — see BulkPut). During a migration each item lands on
// every home in its double-write set.
func (s *DomainSet) BatchPutAttributes(reqs []PutRequest) error {
	if len(reqs) > MaxBatchItems {
		return ErrBatchTooLarge
	}
	v, done := s.beginWrite()
	defer done()
	for sh, rs := range v.byHome(reqs) {
		if len(rs) == 0 {
			continue
		}
		if err := v.shards[sh].BatchPutAttributes(rs); err != nil {
			return err
		}
	}
	return nil
}

// byHome partitions reqs by shard, in shard order so that one seed issues the
// per-shard calls in one order: each request goes to every home in its
// double-write set.
func (v *DomainView) byHome(reqs []PutRequest) [][]PutRequest {
	perShard := make([][]PutRequest, len(v.shards))
	if len(v.shards) == 1 {
		perShard[0] = reqs
		return perShard
	}
	for _, r := range reqs {
		for _, h := range v.homesForItem(r.Item) {
			perShard[h] = append(perShard[h], r)
		}
	}
	return perShard
}

// BulkPut writes an arbitrary number of requests with BatchPutAttributes in
// groups of at most 25 (the service limit), each batch addressed to one
// shard so every call stays a single service request. Unordered mode (the
// measured paths) partitions the requests by home shard first — every home
// in the double-write set during a migration — filling each shard's batches
// to the brim, and runs the calls on up to conns concurrent connections.
// Ordered mode preserves the global ancestors-first order: it walks the
// requests in sequence and cuts a batch whenever the home set changes (or
// the batch fills), writing batches strictly one after another, each batch
// to every home it routes to.
func (s *DomainSet) BulkPut(reqs []PutRequest, conns int, ordered bool) error {
	v, done := s.beginWrite()
	defer done()
	if ordered {
		sameHomes := func(a, b []int) bool {
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
			return true
		}
		var tasks []func() error
		for start := 0; start < len(reqs); {
			homes := v.homesForItem(reqs[start].Item)
			end := start + 1
			for end < len(reqs) && end-start < MaxBatchItems && sameHomes(v.homesForItem(reqs[end].Item), homes) {
				end++
			}
			batch := reqs[start:end]
			for _, h := range homes {
				dom := v.shards[h]
				tasks = append(tasks, func() error { return dom.BatchPutAttributes(batch) })
			}
			start = end
		}
		return par.Sequential(tasks)
	}
	var tasks []func() error
	for sh, rs := range v.byHome(reqs) {
		dom := v.shards[sh]
		for start := 0; start < len(rs); start += MaxBatchItems {
			end := start + MaxBatchItems
			if end > len(rs) {
				end = len(rs)
			}
			batch := rs[start:end]
			tasks = append(tasks, func() error { return dom.BatchPutAttributes(batch) })
		}
	}
	return par.Run(conns, tasks)
}

// GetAttributes reads one item from its home shard(s).
func (s *DomainSet) GetAttributes(item string) (Item, error) {
	v, done := s.AcquireView()
	defer done()
	return v.GetAttributes(item)
}

// DeleteAttributes removes one item from every home it may live on.
func (s *DomainSet) DeleteAttributes(item string) error {
	v, done := s.beginWrite()
	defer done()
	for _, h := range v.homesForItem(item) {
		if err := v.shards[h].DeleteAttributes(item); err != nil {
			return err
		}
	}
	return nil
}

// ItemCount sums the live items across all live shards. During the window
// between a cutover and its GC, moved items still exist on their old shard
// and are counted twice; use query digests, not counts, mid-migration.
func (s *DomainSet) ItemCount() int {
	v := s.View()
	n := 0
	for _, d := range v.shards {
		n += d.ItemCount()
	}
	return n
}

// SelectAllRouted is SelectAllQuery — the planner reads the home shards off
// q's itemName() predicate, not the key — kept only for benchmark/probes.go,
// which a PR that claims a gain may not edit; delete it with that call.
func (s *DomainSet) SelectAllRouted(_ string, q Query) (items []Item, requests int, bytes int, err error) {
	return s.SelectAllQuery(q)
}

// SelectAllQuery drains a query against the shards that can hold a match
// (DomainView.targets), merged into canonical name order.
func (s *DomainSet) SelectAllQuery(q Query) (items []Item, requests int, bytes int, err error) {
	v, done := s.AcquireView()
	defer done()
	return v.SelectAllQuery(q)
}

// SelectAll drains every page of a SELECT expression across all live
// shards, merged into canonical name order.
func (s *DomainSet) SelectAll(expr string) (items []Item, requests int, bytes int, err error) {
	v, done := s.AcquireView()
	defer done()
	return v.SelectAll(expr)
}

// Select runs one page of a SELECT expression (see DomainView.Select).
func (s *DomainSet) Select(expr, nextToken string) (SelectPage, error) {
	v, done := s.AcquireView()
	defer done()
	return v.Select(expr, nextToken)
}

// mergeByName k-way merges per-shard item lists, each already in ascending
// name order, into one ascending list. Shards partition the name space in a
// stable epoch, so normally no name appears twice; during a migration's
// double-write window (and between cutover and GC) the same immutable item
// can surface on both of its epoch homes, so equal names collapse to their
// first occurrence — which, by immutability, is byte-identical to the
// duplicates dropped.
func mergeByName(lists [][]Item) []Item {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if total == 0 {
		return nil
	}
	out := make([]Item, 0, total)
	pos := make([]int, len(lists))
	remaining := total
	for remaining > 0 {
		best := -1
		for i, l := range lists {
			if pos[i] >= len(l) {
				continue
			}
			if best < 0 || l[pos[i]].Name < lists[best][pos[best]].Name {
				best = i
			}
		}
		it := lists[best][pos[best]]
		pos[best]++
		remaining--
		if n := len(out); n > 0 && out[n-1].Name == it.Name {
			continue // migration-window duplicate of an immutable item
		}
		out = append(out, it)
	}
	return out
}
