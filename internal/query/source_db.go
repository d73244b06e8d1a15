package query

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/core"
	"passcloud/internal/par"
	"passcloud/internal/prov"
	"passcloud/internal/uuid"
)

// The database source (P2/P3): indexed root resolution, item-name reads the
// view routes to their home shards, scatter-gather IN-batched child lookups
// — with the read-through cache underneath every targeted access path and
// the pushed half of the filter fused into the reads that may take it.

// The SELECT templates the access paths share — item names only, full
// items, names plus the input attribute; callers copy one and bind a
// predicate, so one query shape is reused across every BFS level instead of
// formatting and reparsing an expression per batch.
var (
	itemNameQuery = sdb.Query{Domain: core.DomainName, ItemOnly: true}
	itemQuery     = sdb.Query{Domain: core.DomainName}
	inputQuery    = sdb.Query{Domain: core.DomainName, Fields: []string{prov.AttrInput}}
)

// drains holds the SELECT drain buffers the database source reuses. A
// buffer goes back, zeroed, as soon as what it held is decoded: nothing the
// engine returns points into one (see the package doc).
var drains = sync.Pool{New: func() any { return new(sdb.Result) }}

// release zeroes each buffer and hands it back to the pool.
func release(rs ...*sdb.Result) {
	for _, r := range rs {
		r.Reset()
		drains.Put(r)
	}
}

type dbSource struct {
	e    *Engine
	spec *Spec
	// view is the routing snapshot every access path of this execution
	// uses; capturing it once pins the whole query to one epoch pair.
	view *sdb.DomainView
	// pushed is the half of the spec's filter the split lowered into the
	// SELECT grammar (see splitFilter); nil means every read ships
	// unfiltered and the whole filter — if any — runs client-side.
	pushed *sdb.Node
}

func (s *dbSource) describe() string {
	// What the view cannot route by item name asks every shard.
	scatter := fmt.Sprintf("K-way scatter (K=%d)", s.e.dep.DB.Shards())
	filter := s.e.describeFilter(*s.spec)
	var roots string
	switch {
	case len(s.spec.Roots.Attrs) > 0:
		roots = "indexed attribute SELECT, " + scatter
	case len(s.spec.Roots.Paths) > 0:
		roots = "HEAD + metadata link"
	default:
		roots = "direct refs"
	}
	var traverse string
	switch s.spec.Direction {
	case All:
		// Whole-domain drains never consult the cache (see Cache docs).
		return "sdb: SELECT drain over all shards, " + scatter + ", uncached" + filter
	case Self:
		traverse = "no traversal"
	case Versions:
		traverse = "uuid-prefix SELECT per root, routed to the uuid's home shard (1 request each)"
	case Descendants:
		traverse = "IN-batched BFS over input edges, each batch a " + scatter + " — children live on any shard; a partial batch, the roots' included, padded with later versions of version-chain refs within the depth left"
	case Ancestors:
		traverse = "walk over xref edges, each level a batched itemName() fetch routed to the refs' home shards, ≤ min(K, refs) requests per 20-ref batch, a partial batch padded with earlier versions of its refs within the depth left"
	}
	cache := "off"
	if s.e.cache != nil {
		cache = "on"
		if s.e.unsub != nil {
			cache = "on, subscribed"
		}
	}
	return fmt.Sprintf("sdb: roots via %s; %s; cache %s%s", roots, traverse, cache, filter)
}

// all drains the whole logical domain — the database plan for Q1. Within
// one domain the paged SELECT cannot be parallelized (each page needs the
// previous page's token), but on a sharded fabric the domain set scatters
// the drain across shards in parallel and merges back canonical name order.
// A pushed predicate rides the scan: the planner serves it from the
// secondary indexes, so the drain examines the predicate's candidates
// instead of every item, and ships only matching items.
func (s *dbSource) all() ([]prov.Bundle, error) {
	q := itemQuery
	q.Where = s.pushed
	if s.pushed == nil && !s.spec.needBundles() {
		q = itemNameQuery // an itemName()-only item decodes to its bare ref
	}
	var r sdb.Result // not pooled: a whole-domain drain would leave the pool a domain's worth
	if err := s.view.Drain(q, &r); err != nil {
		return nil, err
	}
	return core.BundlesFromItems(r.Items)
}

// attrRoots finds node refs matching every attribute equality — one indexed
// SELECT, read through the cache's attr observations (the predicate rides
// along into the cache so commit notices can match new items against it).
func (s *dbSource) attrRoots(ms []AttrMatch, fuse bool) ([]prov.Ref, map[prov.Ref]*prov.Bundle, error) {
	// Fused, the filter rides the root SELECT itself — one indexed request
	// resolving and filtering together replaces the attribute SELECT plus
	// the per-root bundle fetch the client-side plan needs just to evaluate
	// the filter. (A pushed predicate is never combined with a cache.)
	fused := fuse && s.pushed != nil
	cache := s.e.cache
	var key string
	if cache != nil {
		key = attrKey(ms)
		if v, ok := cache.lookupObs(key, s.view.Epoch()); ok && !fused {
			return v.([]prov.Ref), nil, nil
		}
	}
	q := itemNameQuery
	q.Where = sdb.Eq(ms[0].Attr, ms[0].Value)
	for _, m := range ms[1:] {
		q.Where = sdb.And(q.Where, sdb.Eq(m.Attr, m.Value))
	}
	if fused {
		q.ItemOnly, q.Where = false, sdb.And(q.Where, s.pushed)
	}
	r := drains.Get().(*sdb.Result)
	defer release(r)
	err := s.view.Drain(q, r)
	if err != nil {
		return nil, nil, err
	}
	items := r.Items
	refs := make([]prov.Ref, len(items))
	if fused {
		bundles, err := core.BundlesFromItems(items)
		if err != nil {
			return nil, nil, err
		}
		shipped := make(map[prov.Ref]*prov.Bundle, len(items))
		for i := range bundles {
			refs[i], shipped[bundles[i].Ref] = bundles[i].Ref, &bundles[i]
		}
		return refs, shipped, nil
	}
	for i, it := range items {
		if refs[i], err = prov.ParseRef(it.Name); err != nil {
			return nil, nil, err
		}
	}
	if cache != nil {
		cache.storeObs(key, refs, s.view.Epoch(), ms)
	}
	return refs, nil, nil
}

// versions returns every bundle recorded for an object uuid, read through
// the cache's version observations; misses delegate to
// core.ReadProvenanceView against this execution's routing snapshot (a
// name-prefix SELECT the view routes to the uuid's home shard — all
// versions co-shard, so this is one request, not a scatter; no recorded
// versions is ErrNoProvenance).
func (s *dbSource) versions(u uuid.UUID) ([]prov.Bundle, error) {
	r := drains.Get().(*sdb.Result)
	defer release(r)
	cache := s.e.cache
	if cache == nil {
		return core.ReadProvenanceView(s.view, u, r)
	}
	key := versKey(u)
	if v, ok := cache.lookupObs(key, s.view.Epoch()); ok {
		return v.([]prov.Bundle), nil
	}
	bundles, err := core.ReadProvenanceView(s.view, u, r)
	if err != nil {
		return nil, err
	}
	cache.storeObs(key, bundles, s.view.Epoch(), nil)
	for i := range bundles {
		cache.storeBundle(itemKey(bundles[i].Ref.String()), &bundles[i])
	}
	return bundles, nil
}

// selectIn asks a template query of refs by name: one SELECT per inBatch
// refs (the IN list on key, conjoined with and when that is set), batch i
// from template tmpl(i), the batches running on up to Workers connections.
// Batch i's drain comes back in slot i, in a pooled buffer the caller
// releases, every one of them, even on an error.
func (s *dbSource) selectIn(tmpl func(i int) *sdb.Query, key string, refs []prov.Ref, and *sdb.Node) ([]*sdb.Result, error) {
	results := make([]*sdb.Result, (len(refs)+inBatch-1)/inBatch)
	err := par.ForEach(s.spec.Workers, len(results), func(i int) error {
		// The batch's names are rendered into one string and cut from it.
		batch := refs[i*inBatch : min((i+1)*inBatch, len(refs))]
		var buf [inBatch * (uuid.StringLen + 21)]byte // uuid, '_', any int64
		var ends [inBatch + 1]int
		for j, r := range batch {
			ends[j+1] = len(r.AppendTo(buf[:ends[j]]))
		}
		names, vals := string(buf[:ends[len(batch)]]), make([]string, len(batch))
		for j := range vals {
			vals[j] = names[ends[j]:ends[j+1]]
		}
		q := *tmpl(i)
		q.Where = andNode(sdb.In(key, vals...), and)
		results[i] = drains.Get().(*sdb.Result)
		return s.view.Drain(q, results[i])
	})
	return results, err
}

// children finds the input-edge children of refs: an IN-batched
// scatter-gather SELECT per 20 refs (referencing items can live on any
// domain shard). The request shape adapts to what the caller needs —
// itemName() only for plain ref traversals, plus the input attribute where
// children must be told apart by parent, full items when bundles are needed
// anyway — so the request COUNT is identical in every mode, and the kids
// cache short-circuits refs whose children were already observed.
//
// Short of a terminal level, a partial last batch is padded with later
// versions of refs that ride a version chain (descent.chained, roots too;
// see pad). A padded batch, like every batch under the cache, tells its
// children apart by parent; a pad's children go to the walk's memo and to
// the cache, an eventually consistent read like any other, taken early.
//
// On a terminal level with a pushed predicate (never combined with a
// cache), the predicate fuses into the IN SELECT: non-matching children are
// never shipped (nor examined, when the planner finds a cheaper predicate
// branch), which is safe exactly because no further frontier is built from
// them.
func (s *dbSource) children(refs []prov.Ref, w *descent) ([]prov.Ref, error) {
	cache, epoch, full := s.e.cache, s.view.Epoch(), s.spec.needBundles()
	var out []prov.Ref
	pending := refs
	if cache != nil {
		pending = nil
		for _, r := range refs {
			if v, ok := cache.lookupObs(kidsKey(r), epoch); ok {
				out = append(out, v.([]prov.Ref)...)
			} else {
				pending = append(pending, r)
			}
		}
	}
	asked := len(pending)
	if w.reach > 0 {
		pending = pad(pending, 1, func(r prov.Ref) int {
			if w.chained(r) {
				return min(w.reach, math.MaxInt-r.Version)
			}
			return 0
		}, func(p prov.Ref) bool {
			_, answered := w.answered(p)
			return answered || (cache != nil && cache.has(kidsKey(p)))
		})
	}
	// Batches from attributed on ship the input attribute: the last one if
	// it carries pads, every one under the cache.
	attributed := (len(pending)+inBatch-1)/inBatch - min(len(pending)-asked, 1)
	if cache != nil {
		attributed = 0
	}
	var fused *sdb.Node
	if full && w.terminal {
		fused = s.pushed
	}
	results, err := s.selectIn(func(i int) *sdb.Query {
		switch {
		case full:
			return &itemQuery
		case i >= attributed:
			return &inputQuery
		}
		return &itemNameQuery
	}, prov.AttrInput, pending, fused)
	defer release(results...)
	if err != nil {
		return nil, err
	}
	// An edge pairs a child of an attributed batch with its parent's index.
	type edge struct {
		parent int
		kid    prov.Ref
	}
	n := 0
	for _, r := range results[attributed:] {
		n += len(r.Items)
	}
	edges := make([]edge, 0, n)
	for bi, r := range results {
		items, batch := r.Items, pending[bi*inBatch:min((bi+1)*inBatch, len(pending))]
		var bundles []prov.Bundle
		if full {
			if bundles, err = core.BundlesFromItems(items); err != nil {
				return nil, err
			}
		}
		for k, it := range items {
			ref, err := prov.ParseRef(it.Name)
			if err != nil {
				return nil, err
			}
			if full {
				w.bundles[ref] = &bundles[k]
				if cache != nil {
					cache.storeBundle(itemKey(it.Name), &bundles[k])
				}
			}
			if bi < attributed {
				out = append(out, ref)
				continue
			}
			for _, a := range it.Attrs {
				if a.Name != prov.AttrInput {
					continue
				}
				parent, err := prov.ParseRef(a.Value)
				if j := slices.Index(batch, parent); err == nil && j >= 0 {
					edges = append(edges, edge{bi*inBatch + j, ref})
				}
			}
		}
	}
	slices.SortFunc(edges, func(a, b edge) int { return cmp.Or(a.parent-b.parent, a.kid.Compare(b.kid)) })
	kids := make([]prov.Ref, len(edges))
	w.memo = slices.Grow(w.memo, len(pending)-asked)
	for j, e := attributed*inBatch, 0; j < len(pending); j++ {
		lo := e
		for ; e < len(edges) && edges[e].parent == j; e++ {
			kids[e] = edges[e].kid
		}
		if cache != nil {
			cache.storeObs(kidsKey(pending[j]), kids[lo:e:e], epoch, nil)
		}
		if j < asked {
			out = append(out, kids[lo:e]...)
		} else {
			w.memo = append(w.memo, answer{pending[j], kids[lo:e:e]})
		}
	}
	slices.SortFunc(w.memo, func(a, b answer) int { return a.ref.Compare(b.ref) })
	return out, nil
}

// bundles fetches full bundles for exact refs, read through the item cache;
// misses batch into itemName() IN SELECTs, which the view splits across the
// refs' home shards (≤ min(K, refs) requests per batch). With reach > 0 the
// last, partial batch is padded with earlier versions of its own refs (see
// pad), which ride the requests the batch makes anyway.
func (s *dbSource) bundles(refs []prov.Ref, known map[prov.Ref]*prov.Bundle, reach int) (map[prov.Ref]*prov.Bundle, error) {
	cache := s.e.cache
	out := make(map[prov.Ref]*prov.Bundle, len(refs))
	pending := refs
	if cache != nil {
		pending = nil
		for _, r := range refs {
			if v, ok := cache.lookup(itemKey(r.String())); ok {
				out[r] = v.(*prov.Bundle)
			} else {
				pending = append(pending, r)
			}
		}
	}
	if reach > 0 {
		pending = pad(pending, -1, func(r prov.Ref) int { return min(reach, r.Version-1) }, func(p prov.Ref) bool {
			return known[p] != nil || (cache != nil && cache.has(itemKey(p.String())))
		})
	}
	results, err := s.selectIn(func(int) *sdb.Query { return &itemQuery }, sdb.ItemNameKey, pending, nil)
	defer release(results...)
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		items := r.Items
		bundles, err := core.BundlesFromItems(items)
		if err != nil {
			return nil, err
		}
		for i := range bundles {
			out[bundles[i].Ref] = &bundles[i]
			if cache != nil {
				cache.storeBundle(itemKey(items[i].Name), &bundles[i])
			}
		}
	}
	return out, nil
}

// pad fills the free slots of refs' last IN batch with other versions of
// that batch's own refs, step (−1 or +1) apart: the next version over of
// each, then the one after, never more than room(r) steps from a ref r,
// skipping a version refs already names or skip rejects. A walk that
// reaches one version of a chain goes on to the next unless its depth runs
// out first, and every version of a uuid routes with the uuid
// (sdb.RouteKey). A pad never adds a batch; refs itself is never written.
func pad(refs []prov.Ref, step int, room func(prov.Ref) int, skip func(prov.Ref) bool) []prov.Ref {
	start := len(refs) / inBatch * inBatch
	tail := refs[start:]
	var rooms [inBatch]int
	deepest := 0 // the most steps any tail ref has room for
	for i, r := range tail {
		rooms[i] = room(r)
		deepest = max(deepest, rooms[i])
	}
	if deepest == 0 {
		return refs
	}
	out := append(make([]prov.Ref, 0, start+inBatch), refs...)
	for k := 1; k <= deepest && len(out)%inBatch != 0; k++ {
		for i, r := range tail {
			p := prov.Ref{UUID: r.UUID, Version: r.Version + step*k}
			if k > rooms[i] || slices.Contains(out, p) || skip(p) {
				continue
			}
			if out = append(out, p); len(out)%inBatch == 0 {
				break
			}
		}
	}
	return out
}
