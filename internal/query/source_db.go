package query

import (
	"fmt"

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
		traverse = "IN-batched BFS over input edges, each batch a " + scatter + " — children live on any shard"
	case Ancestors:
		traverse = "walk over xref edges, each level a batched itemName() fetch routed to the refs' home shards, ≤ min(K, refs) requests per 20-ref batch"
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
	items, _, _, err := s.view.SelectAllQuery(q)
	if err != nil {
		return nil, err
	}
	nodes := make([]prov.Bundle, len(items))
	for i, it := range items {
		if nodes[i], err = core.BundleFromItem(it); err != nil {
			return nil, err
		}
	}
	return nodes, nil
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
	key := attrKey(ms)
	if v, ok := s.e.cache.lookupObs(key, s.view.Epoch()); ok && !fused {
		return v.([]prov.Ref), nil, nil
	}
	q := itemNameQuery
	q.Where = sdb.Eq(ms[0].Attr, ms[0].Value)
	for _, m := range ms[1:] {
		q.Where = sdb.And(q.Where, sdb.Eq(m.Attr, m.Value))
	}
	if fused {
		q.ItemOnly, q.Where = false, sdb.And(q.Where, s.pushed)
	}
	items, _, _, err := s.view.SelectAllQuery(q)
	if err != nil {
		return nil, nil, err
	}
	refs := make([]prov.Ref, 0, len(items))
	var shipped map[prov.Ref]*prov.Bundle
	if fused {
		shipped = make(map[prov.Ref]*prov.Bundle, len(items))
	}
	for _, it := range items {
		r, err := prov.ParseRef(it.Name)
		if err != nil {
			return nil, nil, err
		}
		refs = append(refs, r)
		if fused {
			b, err := core.BundleFromItem(it)
			if err != nil {
				return nil, nil, err
			}
			shipped[r] = &b
		}
	}
	if !fused {
		s.e.cache.storeAttrObs(key, refs, s.view.Epoch(), ms)
	}
	return refs, shipped, nil
}

// versions returns every bundle recorded for an object uuid, read through
// the cache's version observations; misses delegate to
// core.ReadProvenanceView against this execution's routing snapshot (a
// name-prefix SELECT the view routes to the uuid's home shard — all
// versions co-shard, so this is one request, not a scatter; no recorded
// versions is ErrNoProvenance).
func (s *dbSource) versions(u uuid.UUID) ([]prov.Bundle, error) {
	if v, ok := s.e.cache.lookupObs(versKey(u), s.view.Epoch()); ok {
		return v.([]prov.Bundle), nil
	}
	bundles, err := core.ReadProvenanceView(s.view, u)
	if err != nil {
		return nil, err
	}
	s.e.cache.storeObs(versKey(u), bundles, s.view.Epoch())
	for i := range bundles {
		s.e.cache.store(itemKey(bundles[i].Ref.String()), &bundles[i])
	}
	return bundles, nil
}

// selectIn asks the template query of refs by name: one SELECT per inBatch
// refs (the IN list on key, conjoined with and when that is set), the
// batches running on up to Workers connections. Batch i's items come back
// in slot i.
func (s *dbSource) selectIn(tmpl *sdb.Query, key string, refs []prov.Ref, and *sdb.Node) ([][]sdb.Item, error) {
	results := make([][]sdb.Item, (len(refs)+inBatch-1)/inBatch)
	err := par.ForEach(s.spec.Workers, len(results), func(i int) error {
		batch := refs[i*inBatch : min((i+1)*inBatch, len(refs))]
		vals := make([]string, 0, len(batch))
		for _, r := range batch {
			vals = append(vals, r.String())
		}
		q := *tmpl
		q.Where = andNode(sdb.In(key, vals...), and)
		items, _, _, err := s.view.SelectAllQuery(q)
		results[i] = items
		return err
	})
	return results, err
}

// children finds the input-edge children of refs: an IN-batched
// scatter-gather SELECT per 20 refs (referencing items can live on any
// domain shard). The request shape adapts to what the caller needs —
// itemName() only for plain ref traversals, plus the input attribute when
// the cache wants per-ref child observations, full items when bundles are
// needed anyway — so the request COUNT is identical in every mode, and the
// kids cache short-circuits refs whose children were already observed.
//
// On a terminal level with a pushed predicate (never combined with a
// cache), the predicate fuses into the IN SELECT: non-matching children are
// never shipped (nor examined, when the planner finds a cheaper predicate
// branch), which is safe exactly because no further frontier is built from
// them.
func (s *dbSource) children(refs []prov.Ref, terminal bool) ([]prov.Ref, map[prov.Ref]*prov.Bundle, error) {
	cache, epoch, full := s.e.cache, s.view.Epoch(), s.spec.needBundles()
	bundles := make(map[prov.Ref]*prov.Bundle)
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

	q := &itemNameQuery
	var fused *sdb.Node
	switch {
	case full:
		q = &itemQuery
		if terminal {
			fused = s.pushed
		}
	case cache != nil:
		q = &inputQuery
	}
	results, err := s.selectIn(q, prov.AttrInput, pending, fused)
	if err != nil {
		return nil, nil, err
	}

	// perRef accumulates each pending ref's observed children for the cache.
	var perRef map[prov.Ref][]prov.Ref
	if cache != nil {
		perRef = make(map[prov.Ref][]prov.Ref, len(pending))
	}
	for bi, items := range results {
		var batchSet map[string]prov.Ref
		if cache != nil { // only the per-ref child attribution below reads it
			batch := pending[bi*inBatch : min((bi+1)*inBatch, len(pending))]
			batchSet = make(map[string]prov.Ref, len(batch))
			for _, r := range batch {
				batchSet[r.String()] = r
			}
		}
		for _, it := range items {
			ref, err := prov.ParseRef(it.Name)
			if err != nil {
				return nil, nil, err
			}
			out = append(out, ref)
			if full {
				b, err := core.BundleFromItem(it)
				if err != nil {
					return nil, nil, err
				}
				bundles[ref] = &b
			}
			if cache != nil {
				if full {
					cache.store(itemKey(it.Name), bundles[ref])
				}
				for _, a := range it.Attrs {
					if a.Name != prov.AttrInput {
						continue
					}
					if parent, ok := batchSet[a.Value]; ok {
						perRef[parent] = append(perRef[parent], ref)
					}
				}
			}
		}
	}
	if cache != nil {
		for _, r := range pending {
			kids := perRef[r]
			sortRefs(kids)
			cache.storeObs(kidsKey(r), kids, epoch)
		}
	}
	return out, bundles, nil
}

// bundles fetches full bundles for exact refs, read through the item cache;
// misses batch into itemName() IN SELECTs, which the view splits across the
// refs' home shards (≤ min(K, refs) requests per batch).
func (s *dbSource) bundles(refs []prov.Ref) (map[prov.Ref]*prov.Bundle, error) {
	out := make(map[prov.Ref]*prov.Bundle, len(refs))
	var pending []prov.Ref
	for _, r := range refs {
		if v, ok := s.e.cache.lookup(itemKey(r.String())); ok {
			out[r] = v.(*prov.Bundle)
		} else {
			pending = append(pending, r)
		}
	}
	results, err := s.selectIn(&itemQuery, sdb.ItemNameKey, pending, nil)
	if err != nil {
		return nil, err
	}
	for _, items := range results {
		for _, it := range items {
			b, err := core.BundleFromItem(it)
			if err != nil {
				return nil, err
			}
			out[b.Ref] = &b
			s.e.cache.store(itemKey(it.Name), &b)
		}
	}
	return out, nil
}
