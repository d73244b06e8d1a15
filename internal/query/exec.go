package query

import (
	"errors"
	"fmt"
	"iter"
	"sort"
	"strconv"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/core"
	"passcloud/internal/par"
	"passcloud/internal/prov"
	"passcloud/internal/uuid"
)

// DefaultWorkers bounds parallel plan stages when Spec.Workers is zero.
const DefaultWorkers = 8

// inBatch is how many values one SELECT's IN predicate carries (SimpleDB
// allows 20 comparisons per predicate).
const inBatch = 20

// errStop signals that the consumer stopped the iteration; it never escapes
// Run.
var errStop = errors.New("query: iteration stopped")

// emitter adapts the drivers' push model to the iterator's pull model.
type emitter struct {
	yield func(Result, error) bool
}

// emit forwards one result; errStop tells the driver to unwind.
func (em *emitter) emit(r Result) error {
	if !em.yield(r, nil) {
		return errStop
	}
	return nil
}

// Run plans and executes spec against the engine's backend, streaming
// results as the plan produces them: whole levels for traversals, decoded
// pages for scans. The sequence yields at most one non-nil error, as its
// final element. Traversal levels are emitted in canonical ref order, so a
// given (deployment, spec) pair streams deterministically regardless of
// shard count, fan-out or cache state.
func (e *Engine) Run(spec Spec) iter.Seq2[Result, error] {
	return func(yield func(Result, error) bool) {
		em := &emitter{yield: yield}
		var err error
		switch {
		case spec.Direction != All && spec.Roots.IsZero():
			err = fmt.Errorf("query: direction %s needs at least one root", spec.Direction)
		case e.backend == core.BackendS3:
			err = (&s3Exec{e: e, spec: spec}).run(em)
		case e.backend == core.BackendSDB:
			// Acquire the routing view once per Run: every BFS level and
			// batch fetch of this traversal routes against the same epoch
			// pair, so a reshard cutover mid-query cannot split one
			// traversal across epochs. The acquisition registers with the
			// reshard read barrier — a migration's GC waits for this
			// iteration to finish (the release below) rather than deleting
			// old-home items out from under a pre-window view.
			view, release := e.dep.DB.AcquireView()
			defer release()
			err = (&dbExec{e: e, spec: spec, view: view}).run(em)
		default:
			err = fmt.Errorf("query: backend records no provenance")
		}
		if err != nil && !errors.Is(err, errStop) {
			yield(Result{}, err)
		}
	}
}

// Collect materializes a spec's full result set.
func (e *Engine) Collect(spec Spec) ([]Result, error) {
	var out []Result
	for r, err := range e.Run(spec) {
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// CollectRefs materializes just the refs of a spec's result set.
func (e *Engine) CollectRefs(spec Spec) ([]prov.Ref, error) {
	var out []prov.Ref
	for r, err := range e.Run(spec) {
		if err != nil {
			return nil, err
		}
		out = append(out, r.Ref)
	}
	return out, nil
}

// CollectBundles materializes the bundles of a spec's result set, forcing
// ProjectBundles.
func (e *Engine) CollectBundles(spec Spec) ([]prov.Bundle, error) {
	spec.Project = ProjectBundles
	var out []prov.Bundle
	for r, err := range e.Run(spec) {
		if err != nil {
			return nil, err
		}
		if r.Bundle != nil {
			out = append(out, *r.Bundle)
		}
	}
	return out, nil
}

// CollectGraph materializes a bundle-projected result stream into an
// in-memory DAG (duplicate refs keep the first bundle seen), the form the
// search re-ranker and the local analysis helpers consume.
func CollectGraph(seq iter.Seq2[Result, error]) (*prov.Graph, error) {
	g := prov.NewGraph()
	for r, err := range seq {
		if err != nil {
			return nil, err
		}
		if r.Bundle == nil {
			return nil, fmt.Errorf("query: CollectGraph needs ProjectBundles results (got refs-only %s)", r.Ref)
		}
		if g.Node(r.Ref) == nil {
			if err := g.AddBundle(*r.Bundle); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// Describe names the plan the engine would run for spec — the backend
// access paths, the traversal strategy and whether the read-through cache
// participates.
func (e *Engine) Describe(spec Spec) string {
	if e.backend == core.BackendS3 {
		switch spec.Direction {
		case Versions:
			if len(spec.Roots.Attrs) == 0 {
				return "s3: targeted provenance-object GETs (one per root uuid)"
			}
		case Self:
			if len(spec.Roots.Attrs) == 0 && len(spec.Roots.UUIDs) == 0 &&
				spec.Filter == nil && spec.Project == ProjectRefs {
				return "s3: targeted HEAD/GET root resolution, no scan"
			}
		}
		return "s3: whole-graph scan (LIST + parallel GETs), local evaluation"
	}
	cache := "off"
	if e.cache != nil {
		cache = "on"
		if e.unsub != nil {
			cache = "on, subscribed"
		}
	}
	// What the view cannot route by item name asks every shard.
	scatter := fmt.Sprintf("K-way scatter (K=%d)", e.dep.DB.Shards())
	var roots string
	switch {
	case len(spec.Roots.Attrs) > 0:
		roots = "indexed attribute SELECT, " + scatter
	case len(spec.Roots.Paths) > 0:
		roots = "HEAD + metadata link"
	default:
		roots = "direct refs"
	}
	var traverse string
	switch spec.Direction {
	case All:
		// Whole-domain drains never consult the cache (see Cache docs).
		return "sdb: SELECT drain over all shards, " + scatter + ", uncached" +
			e.describeFilter(spec)
	case Self:
		traverse = "no traversal"
	case Versions:
		traverse = "uuid-prefix SELECT per root, routed to the uuid's home shard (1 request each)"
	case Descendants:
		traverse = "IN-batched BFS over input edges, each batch a " + scatter + " — children live on any shard"
	case Ancestors:
		traverse = "walk over xref edges, each level a batched itemName() fetch routed to the refs' home shards, ≤ min(K, refs) requests per 20-ref batch"
	}
	return fmt.Sprintf("sdb: roots via %s; %s; cache %s%s",
		roots, traverse, cache, e.describeFilter(spec))
}

// describeFilter names how the spec's filter — if any — would be evaluated:
// lowered into SELECT predicates, split into a pushed half and a client
// residue, or run client-side in full, with the reason. It mirrors
// dbExec.prepare exactly.
func (e *Engine) describeFilter(spec Spec) string {
	if spec.Filter == nil {
		return ""
	}
	const client = "; filter client-side"
	if !e.pushdown {
		return client + " (pushdown off)"
	}
	if e.cache != nil {
		return client + " (cached observations answer before SELECTs)"
	}
	switch spec.Direction {
	case Versions, Ancestors:
		return client + " (plan fetches bundles anyway)"
	case Descendants:
		if spec.MaxDepth == 0 {
			return client + " (unbounded walk: every level feeds the frontier)"
		}
	case Self:
		if len(spec.Roots.Attrs) == 0 || len(spec.Roots.Paths) > 0 ||
			len(spec.Roots.UUIDs) > 0 || len(spec.Roots.Refs) > 0 {
			return client + " (non-attribute roots)"
		}
	}
	pushed, residue := lowerFilter(spec.Filter)
	switch {
	case pushed == nil:
		return client + " (no lowerable conjunctive terms)"
	case residue != nil:
		return fmt.Sprintf("; filter split: [%s] pushed into SELECTs, residue %s client-side",
			pushed, residue)
	default:
		return fmt.Sprintf("; filter [%s] pushed into SELECTs", pushed)
	}
}

// sortRefs orders refs canonically (ascending uuid_version string, the
// order a single domain streams items in).
func sortRefs(refs []prov.Ref) {
	sort.Slice(refs, func(i, j int) bool { return refs[i].String() < refs[j].String() })
}

// emitMatch applies a spec's filter and projection to one matched node,
// identically on every backend. A filter can only be evaluated against a
// fetched bundle; a node whose bundle an eventually consistent read hid is
// skipped rather than guessed at.
func emitMatch(spec Spec, em *emitter, ref prov.Ref, depth int, b *prov.Bundle) error {
	if spec.Filter != nil && (b == nil || !spec.Filter.Match(b)) {
		return nil
	}
	r := Result{Ref: ref, Depth: depth}
	if b != nil && (spec.Project == ProjectBundles || spec.Filter != nil) {
		r.Bundle = b
	}
	return em.emit(r)
}

// resolvePath resolves a data-object path to the node ref its metadata
// links (one HEAD request), identically on every backend. A corrupt link —
// missing uuid or unparsable version — is an error, as core's own link
// decoding treats it, rather than a silent version-0 root that would walk
// nothing.
func resolvePath(dep *core.Deployment, path string) (prov.Ref, error) {
	meta, err := dep.Store.Head(core.DataKey(path))
	if err != nil {
		return prov.Ref{}, err
	}
	u, err := uuid.Parse(meta[core.MetaUUID])
	if err != nil {
		return prov.Ref{}, fmt.Errorf("query: object %s has no provenance link: %v", path, err)
	}
	v, err := strconv.Atoi(meta[core.MetaVersion])
	if err != nil || v < 1 {
		return prov.Ref{}, fmt.Errorf("query: object %s has a malformed provenance link version %q", path, meta[core.MetaVersion])
	}
	return prov.Ref{UUID: u, Version: v}, nil
}

// ---------------------------------------------------------------------------
// Database plans (P2/P3): indexed root resolution, item-name reads the view
// routes to their home shards, scatter-gather IN-batched child lookups —
// with the read-through cache underneath every targeted access path.

// itemNameQuery is the SELECT itemName() template the traversal queries
// share; callers copy it and bind a predicate, so one query shape is reused
// across every BFS level instead of formatting and reparsing an expression
// per batch.
var itemNameQuery = sdb.Query{Domain: core.DomainName, ItemOnly: true}

type dbExec struct {
	e    *Engine
	spec Spec
	// view is the routing snapshot every access path of this execution
	// uses; capturing it once pins the whole query to one epoch pair.
	view *sdb.DomainView
	// pushed/residue split the spec's filter for this execution (see
	// prepare): pushed is evaluated server-side (or against narrowed
	// responses), residue client-side against bundles. Both nil means the
	// whole filter — if any — runs client-side.
	pushed  *sdb.Node
	residue *Filter
}

func (x *dbExec) workers() int {
	if x.spec.Workers > 0 {
		return x.spec.Workers
	}
	return DefaultWorkers
}

// needBundles reports whether client-side emission requires full bundles.
func (x *dbExec) needBundles() bool {
	return x.spec.Project == ProjectBundles || x.spec.Filter != nil
}

// prepare decides the filter split. Pushdown engages only where it wins:
// the whole-domain scan, pure attribute-rooted finds (the predicate fuses
// into the root SELECT) and the terminal levels of depth-bounded descendant
// walks. An unbounded walk has no terminal level (every level feeds the
// frontier, so every child must ship regardless of the filter); Versions
// and Ancestors fetch full bundles on their access paths anyway, so pushing
// their filters would save nothing; cached engines skip pushdown entirely —
// their observations answer reads before any SELECT is planned, and the
// observation keys describe unfiltered sets.
func (x *dbExec) prepare() {
	if x.spec.Filter == nil || !x.e.pushdown || x.e.cache != nil {
		return
	}
	switch x.spec.Direction {
	case All:
		x.pushed, x.residue = lowerFilter(x.spec.Filter)
	case Descendants:
		if x.spec.MaxDepth > 0 {
			x.pushed, x.residue = lowerFilter(x.spec.Filter)
		}
	case Self:
		if len(x.spec.Roots.Attrs) > 0 && len(x.spec.Roots.Paths) == 0 &&
			len(x.spec.Roots.UUIDs) == 0 && len(x.spec.Roots.Refs) == 0 {
			x.pushed, x.residue = lowerFilter(x.spec.Filter)
		}
	}
	if x.pushed == nil {
		x.residue = nil // nothing lowerable: plain client-side filtering
	}
}

func (x *dbExec) run(em *emitter) error {
	x.prepare()
	switch x.spec.Direction {
	case All:
		return x.runAll(em)
	case Self:
		return x.runSelf(em)
	case Versions:
		return x.runVersions(em)
	case Descendants:
		return x.runDescendants(em)
	case Ancestors:
		return x.runAncestors(em)
	}
	return fmt.Errorf("query: unknown direction %d", x.spec.Direction)
}

// emitNode forwards to the backend-shared emitMatch: the full filter — if
// any — is evaluated client-side.
func (x *dbExec) emitNode(em *emitter, ref prov.Ref, depth int, b *prov.Bundle) error {
	return emitMatch(x.spec, em, ref, depth, b)
}

// emitPushed emits a node the server predicate already accepted: only the
// residue — if any — still needs a client-side check. The Bundle-presence
// rule matches emitMatch's exactly — a filtered result carries its bundle on
// every plan — so turning pushdown on or off never changes the result
// stream, only what the SELECTs examine and ship.
func (x *dbExec) emitPushed(em *emitter, ref prov.Ref, depth int, b *prov.Bundle) error {
	if x.residue != nil && (b == nil || !x.residue.Match(b)) {
		return nil
	}
	r := Result{Ref: ref, Depth: depth}
	if b != nil && (x.spec.Project == ProjectBundles || x.spec.Filter != nil) {
		r.Bundle = b
	}
	return em.emit(r)
}

// runAll drains the whole logical domain — the database plan for Q1. Within
// one domain the paged SELECT cannot be parallelized (each page needs the
// previous page's token), but on a sharded fabric the domain set scatters
// the drain across shards in parallel and merges back canonical name order.
func (x *dbExec) runAll(em *emitter) error {
	if x.pushed != nil {
		// The predicate rides the scan: the planner serves it from the
		// secondary indexes, so the drain examines the predicate's candidates
		// instead of every item, and ships only matching items.
		q := sdb.Query{Domain: core.DomainName, Where: x.pushed}
		items, _, _, err := x.view.SelectAllQuery(q)
		if err != nil {
			return err
		}
		return x.emitPushedItems(em, items)
	}
	if !x.needBundles() {
		items, _, _, err := x.view.SelectAllQuery(itemNameQuery)
		if err != nil {
			return err
		}
		for _, it := range items {
			ref, err := prov.ParseRef(it.Name)
			if err != nil {
				return err
			}
			if err := em.emit(Result{Ref: ref}); err != nil {
				return err
			}
		}
		return nil
	}
	items, _, _, err := x.view.SelectAll("select * from " + core.DomainName)
	if err != nil {
		return err
	}
	for _, it := range items {
		b, err := core.BundleFromItem(it)
		if err != nil {
			return err
		}
		if err := x.emitNode(em, b.Ref, 0, &b); err != nil {
			return err
		}
	}
	return nil
}

// emitPushedItems emits a server-filtered SELECT result in response order:
// decoded bundles with the residue applied.
func (x *dbExec) emitPushedItems(em *emitter, items []sdb.Item) error {
	for _, it := range items {
		b, err := core.BundleFromItem(it)
		if err != nil {
			return err
		}
		if err := x.emitPushed(em, b.Ref, 0, &b); err != nil {
			return err
		}
	}
	return nil
}

func (x *dbExec) runSelf(em *emitter) error {
	if x.pushed != nil {
		// Pure attribute roots: the filter fuses into the root SELECT
		// itself — one indexed request resolving and filtering together
		// replaces the attribute SELECT plus the per-root bundle fetch the
		// client-side plan needs just to evaluate the filter.
		ms := x.spec.Roots.Attrs
		pred := sdb.Eq(ms[0].Attr, ms[0].Value)
		for _, m := range ms[1:] {
			pred = sdb.And(pred, sdb.Eq(m.Attr, m.Value))
		}
		q := sdb.Query{Domain: core.DomainName, Where: sdb.And(pred, x.pushed)}
		items, _, _, err := x.view.SelectAllQuery(q)
		if err != nil {
			return err
		}
		return x.emitPushedItems(em, items)
	}
	refs, bundles, err := x.rootRefs()
	if err != nil {
		return err
	}
	if x.needBundles() {
		var missing []prov.Ref
		for _, r := range refs {
			if bundles[r] == nil {
				missing = append(missing, r)
			}
		}
		fetched, err := x.bundlesFor(missing)
		if err != nil {
			return err
		}
		for r, b := range fetched {
			bundles[r] = b
		}
	}
	for _, r := range refs {
		b := bundles[r]
		if x.needBundles() && b == nil {
			continue // root never recorded; nothing to filter or project
		}
		if err := x.emitNode(em, r, 0, b); err != nil {
			return err
		}
	}
	return nil
}

func (x *dbExec) runVersions(em *emitter) error {
	uuids, err := x.rootUUIDs()
	if err != nil {
		return err
	}
	recorded := 0
	for _, u := range uuids {
		bundles, err := x.versions(u)
		if errors.Is(err, core.ErrNoProvenance) {
			continue // tolerate ghost roots alongside recorded ones
		}
		if err != nil {
			return err
		}
		recorded++
		for i := range bundles {
			if err := x.emitNode(em, bundles[i].Ref, 0, &bundles[i]); err != nil {
				return err
			}
		}
	}
	if recorded == 0 && len(uuids) > 0 {
		// No root has any recorded provenance — Q2's contract (and
		// core.ReadProvenance's) for the degenerate case.
		return core.ErrNoProvenance
	}
	return nil
}

// runDescendants is the BFS plan: one round of IN-batched scatter-gather
// SELECTs per DAG level (§5.3: "repeat the second step recursively"), the
// kids cache short-circuiting refs whose children were already observed.
func (x *dbExec) runDescendants(em *emitter) error {
	frontier, _, err := x.rootRefs()
	if err != nil {
		return err
	}
	seen := make(map[prov.Ref]bool)
	depth := 0
	for len(frontier) > 0 {
		if x.spec.MaxDepth > 0 && depth >= x.spec.MaxDepth {
			break
		}
		depth++
		// The last level of a bounded walk feeds no further frontier, so a
		// pushed predicate can fuse into its IN SELECTs — non-matching
		// children never ship (Q3's shape, and the final level of any
		// depth-bounded Q4).
		terminal := x.spec.MaxDepth > 0 && depth == x.spec.MaxDepth
		kids, bundles, matched, err := x.children(frontier, terminal)
		if err != nil {
			return err
		}
		next := kids[:0]
		for _, r := range kids {
			if !seen[r] {
				seen[r] = true
				next = append(next, r)
			}
		}
		if matched == nil && x.needBundles() {
			var missing []prov.Ref
			for _, r := range next {
				if bundles[r] == nil {
					missing = append(missing, r)
				}
			}
			if len(missing) > 0 {
				fetched, err := x.bundlesFor(missing)
				if err != nil {
					return err
				}
				for r, b := range fetched {
					bundles[r] = b
				}
			}
		}
		for _, r := range next {
			if matched != nil {
				if !matched[r] {
					continue
				}
				if err := x.emitPushed(em, r, depth, bundles[r]); err != nil {
					return err
				}
			} else if err := x.emitNode(em, r, depth, bundles[r]); err != nil {
				return err
			}
		}
		frontier = next
	}
	return nil
}

// runAncestors walks dependency edges upward: the roots are emitted at
// depth 0, then each level's bundles are fetched in itemName() IN batches
// (read-through on the item cache) and their cross references become the
// next frontier. Dangling references — ancestors whose provenance was never
// recorded — are skipped, as the causal-ordering detector treats them.
func (x *dbExec) runAncestors(em *emitter) error {
	frontier, known, err := x.rootRefs()
	if err != nil {
		return err
	}
	seen := make(map[prov.Ref]bool)
	for _, r := range frontier {
		seen[r] = true // a root that is also another root's ancestor emits once
	}
	depth := 0
	for len(frontier) > 0 {
		// Resolve the level's bundles, reusing anything already fetched
		// (root version sets, earlier levels of a diamond-shaped DAG).
		var missing []prov.Ref
		for _, r := range frontier {
			if known[r] == nil {
				missing = append(missing, r)
			}
		}
		fetched, err := x.bundlesFor(missing)
		if err != nil {
			return err
		}
		for r, b := range fetched {
			known[r] = b
		}
		var live []*prov.Bundle
		for _, r := range frontier {
			if b := known[r]; b != nil {
				live = append(live, b)
				if err := x.emitNode(em, r, depth, b); err != nil {
					return err
				}
			}
		}
		if x.spec.MaxDepth > 0 && depth >= x.spec.MaxDepth {
			break
		}
		depth++
		var next []prov.Ref
		for _, b := range live {
			for _, p := range b.Ancestors() {
				if !seen[p] {
					seen[p] = true
					next = append(next, p)
				}
			}
		}
		sortRefs(next)
		frontier = next
	}
	return nil
}

// rootRefs resolves the root selectors to exact node refs: paths through
// their primary-object metadata links, uuids through their recorded version
// sets, attribute predicates through one indexed SELECT. Duplicates keep
// their first position. Bundles the resolution had to fetch anyway (the
// uuid version sets) are returned alongside so callers that need root
// bundles do not re-fetch the same immutable items.
func (x *dbExec) rootRefs() ([]prov.Ref, map[prov.Ref]*prov.Bundle, error) {
	var out []prov.Ref
	prefetched := make(map[prov.Ref]*prov.Bundle)
	seen := make(map[prov.Ref]bool)
	add := func(r prov.Ref) {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	for _, p := range x.spec.Roots.Paths {
		r, err := x.pathRef(p)
		if err != nil {
			return nil, nil, err
		}
		add(r)
	}
	for _, u := range x.spec.Roots.UUIDs {
		bundles, err := x.versions(u)
		if errors.Is(err, core.ErrNoProvenance) {
			continue // an unrecorded object contributes no roots, like a ghost Ref
		}
		if err != nil {
			return nil, nil, err
		}
		for i := range bundles {
			add(bundles[i].Ref)
			prefetched[bundles[i].Ref] = &bundles[i]
		}
	}
	for _, r := range x.spec.Roots.Refs {
		add(r)
	}
	if len(x.spec.Roots.Attrs) > 0 {
		refs, err := x.attrRoots(x.spec.Roots.Attrs)
		if err != nil {
			return nil, nil, err
		}
		for _, r := range refs {
			add(r)
		}
	}
	return out, prefetched, nil
}

// rootUUIDs resolves the root selectors to object uuids for the Versions
// direction.
func (x *dbExec) rootUUIDs() ([]uuid.UUID, error) {
	var out []uuid.UUID
	seen := make(map[uuid.UUID]bool)
	add := func(u uuid.UUID) {
		if !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	for _, p := range x.spec.Roots.Paths {
		r, err := x.pathRef(p)
		if err != nil {
			return nil, err
		}
		add(r.UUID)
	}
	for _, u := range x.spec.Roots.UUIDs {
		add(u)
	}
	for _, r := range x.spec.Roots.Refs {
		add(r.UUID)
	}
	if len(x.spec.Roots.Attrs) > 0 {
		refs, err := x.attrRoots(x.spec.Roots.Attrs)
		if err != nil {
			return nil, err
		}
		for _, r := range refs {
			add(r.UUID)
		}
	}
	return out, nil
}

// pathRef forwards to the backend-shared resolvePath.
func (x *dbExec) pathRef(path string) (prov.Ref, error) {
	return resolvePath(x.e.dep, path)
}

// attrRoots finds node refs matching every attribute equality — one indexed
// SELECT, read through the cache's attr observations (the predicate rides
// along into the cache so commit notices can match new items against it).
func (x *dbExec) attrRoots(ms []AttrMatch) ([]prov.Ref, error) {
	key := attrKey(ms)
	if v, ok := x.e.cache.lookupObs(key, x.view.Epoch()); ok {
		return v.([]prov.Ref), nil
	}
	pred := sdb.Eq(ms[0].Attr, ms[0].Value)
	for _, m := range ms[1:] {
		pred = sdb.And(pred, sdb.Eq(m.Attr, m.Value))
	}
	q := itemNameQuery
	q.Where = pred
	items, _, _, err := x.view.SelectAllQuery(q)
	if err != nil {
		return nil, err
	}
	refs, err := refsOf(items)
	if err != nil {
		return nil, err
	}
	x.e.cache.storeAttrObs(key, refs, x.view.Epoch(), ms)
	return refs, nil
}

// versions returns every bundle recorded for an object uuid, read through
// the cache's version observations; misses delegate to
// core.ReadProvenanceView against this execution's routing snapshot (a
// name-prefix SELECT the view routes to the uuid's home shard — all
// versions co-shard, so this is one request, not a scatter; no recorded
// versions is ErrNoProvenance).
func (x *dbExec) versions(u uuid.UUID) ([]prov.Bundle, error) {
	if v, ok := x.e.cache.lookupObs(versKey(u), x.view.Epoch()); ok {
		return v.([]prov.Bundle), nil
	}
	bundles, err := core.ReadProvenanceView(x.view, u)
	if err != nil {
		return nil, err
	}
	x.e.cache.storeObs(versKey(u), bundles, x.view.Epoch())
	for i := range bundles {
		x.e.cache.store(itemKey(bundles[i].Ref.String()), &bundles[i])
	}
	return bundles, nil
}

// children finds the input-edge children of refs: an IN-batched
// scatter-gather SELECT per 20 refs (referencing items can live on any
// domain shard), the batches running on up to Workers connections. The
// request shape adapts to what the caller needs — itemName() only for plain
// ref traversals, plus the input attribute when the cache wants per-ref
// child observations, full items when bundles are needed anyway — so the
// request COUNT is identical in every mode. Returned refs are deduplicated
// and canonically ordered; bundles carries whatever full bundles the
// responses included.
//
// On a terminal level of a depth-bounded walk with a pushed predicate
// (x.pushed != nil, never combined with a cache), the predicate fuses into
// the IN SELECT: non-matching children are never shipped (nor examined, when
// the planner finds a cheaper predicate branch), which is safe exactly
// because no further frontier is built from them. The third return value is
// then non-nil, marking every returned ref server-accepted. Inner levels
// must return every child to keep the traversal complete — the filter
// selects output, not the walk — so they keep the client-filtered shape.
func (x *dbExec) children(refs []prov.Ref, terminal bool) ([]prov.Ref, map[prov.Ref]*prov.Bundle, map[prov.Ref]bool, error) {
	cache := x.e.cache
	bundles := make(map[prov.Ref]*prov.Bundle)
	seen := make(map[prov.Ref]bool)
	var out []prov.Ref
	add := func(r prov.Ref) {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	var matched map[prov.Ref]bool
	fused := x.pushed != nil && terminal
	if fused {
		matched = make(map[prov.Ref]bool)
	}

	pending := refs
	if cache != nil {
		pending = nil
		for _, r := range refs {
			if v, ok := cache.lookupObs(kidsKey(r), x.view.Epoch()); ok {
				for _, cr := range v.([]prov.Ref) {
					add(cr)
				}
			} else {
				pending = append(pending, r)
			}
		}
	}

	var batches [][]prov.Ref
	for start := 0; start < len(pending); start += inBatch {
		end := start + inBatch
		if end > len(pending) {
			end = len(pending)
		}
		batches = append(batches, pending[start:end])
	}
	results := make([][]sdb.Item, len(batches))
	err := par.ForEach(x.workers(), len(batches), func(i int) error {
		vals := make([]string, 0, len(batches[i]))
		for _, r := range batches[i] {
			vals = append(vals, r.String())
		}
		q := itemNameQuery
		q.Where = sdb.In(prov.AttrInput, vals...)
		switch {
		case fused:
			q.Where = sdb.And(q.Where, x.pushed)
			q.ItemOnly, q.Fields = false, nil // full matching items
		case x.needBundles():
			q.ItemOnly, q.Fields = false, nil // full items
		case cache != nil:
			q.ItemOnly, q.Fields = false, []string{prov.AttrInput}
		}
		items, _, _, err := x.view.SelectAllQuery(q)
		if err != nil {
			return err
		}
		results[i] = items
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}

	// perRef accumulates each pending ref's observed children for the cache.
	var perRef map[prov.Ref][]prov.Ref
	if cache != nil {
		perRef = make(map[prov.Ref][]prov.Ref, len(pending))
	}
	for bi, items := range results {
		var batchSet map[string]prov.Ref
		if cache != nil { // only the per-ref child attribution below reads it
			batchSet = make(map[string]prov.Ref, len(batches[bi]))
			for _, r := range batches[bi] {
				batchSet[r.String()] = r
			}
		}
		for _, it := range items {
			ref, err := prov.ParseRef(it.Name)
			if err != nil {
				return nil, nil, nil, err
			}
			add(ref)
			switch {
			case fused:
				matched[ref] = true
				b, err := core.BundleFromItem(it)
				if err != nil {
					return nil, nil, nil, err
				}
				bundles[ref] = &b
			case x.needBundles():
				b, err := core.BundleFromItem(it)
				if err != nil {
					return nil, nil, nil, err
				}
				bundles[ref] = &b
				cache.store(itemKey(it.Name), &b)
			}
			if cache != nil {
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
			cache.storeObs(kidsKey(r), kids, x.view.Epoch())
		}
	}
	sortRefs(out)
	return out, bundles, matched, nil
}

// bundlesFor fetches full bundles for exact refs, read through the item
// cache; misses batch into itemName() IN SELECTs, which the view splits
// across the refs' home shards (≤ min(K, refs) requests per batch). Refs
// that were never recorded are simply absent from the result.
func (x *dbExec) bundlesFor(refs []prov.Ref) (map[prov.Ref]*prov.Bundle, error) {
	out := make(map[prov.Ref]*prov.Bundle, len(refs))
	var pending []prov.Ref
	for _, r := range refs {
		if v, ok := x.e.cache.lookup(itemKey(r.String())); ok {
			out[r] = v.(*prov.Bundle)
		} else {
			pending = append(pending, r)
		}
	}
	var batches [][]prov.Ref
	for start := 0; start < len(pending); start += inBatch {
		end := start + inBatch
		if end > len(pending) {
			end = len(pending)
		}
		batches = append(batches, pending[start:end])
	}
	results := make([][]sdb.Item, len(batches))
	err := par.ForEach(x.workers(), len(batches), func(i int) error {
		names := make([]string, 0, len(batches[i]))
		for _, r := range batches[i] {
			names = append(names, r.String())
		}
		q := sdb.Query{Domain: core.DomainName, Where: sdb.In(sdb.ItemNameKey, names...)}
		items, _, _, err := x.view.SelectAllQuery(q)
		if err != nil {
			return err
		}
		results[i] = items
		return nil
	})
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
			x.e.cache.store(itemKey(it.Name), &b)
		}
	}
	return out, nil
}

// refsOf parses the item names of a SELECT itemName() result.
func refsOf(items []sdb.Item) ([]prov.Ref, error) {
	refs := make([]prov.Ref, 0, len(items))
	for _, it := range items {
		r, err := prov.ParseRef(it.Name)
		if err != nil {
			return nil, err
		}
		refs = append(refs, r)
	}
	return refs, nil
}

// ---------------------------------------------------------------------------
// Store plans (P1): targeted provenance-object GETs where the roots name
// their objects directly, otherwise the only plan the store offers — fetch
// every provenance object and evaluate the query locally (§5.3: "process
// the query locally").

type s3Exec struct {
	e     *Engine
	spec  Spec
	graph *prov.Graph // lazily built whole-graph scan
}

func (x *s3Exec) workers() int {
	if x.spec.Workers > 0 {
		return x.spec.Workers
	}
	return DefaultWorkers
}

func (x *s3Exec) run(em *emitter) error {
	switch x.spec.Direction {
	case All:
		return x.runAll(em)
	case Self:
		return x.runSelf(em)
	case Versions:
		return x.runVersions(em)
	case Descendants:
		return x.runTraversal(em, false)
	case Ancestors:
		return x.runTraversal(em, true)
	}
	return fmt.Errorf("query: unknown direction %d", x.spec.Direction)
}

// scanStore fetches every provenance object from the store — the only plan
// available to the S3 backend for whole-graph queries. The GETs run on up
// to Workers connections (the LIST pagination itself is sequential).
func (x *s3Exec) scanStore() ([]prov.Bundle, error) {
	keys, _, err := x.e.dep.Store.ListAll(core.ProvPrefix)
	if err != nil {
		return nil, err
	}
	bundlesPer := make([][]prov.Bundle, len(keys))
	err = par.ForEach(x.workers(), len(keys), func(i int) error {
		o, err := x.e.dep.Store.Get(keys[i])
		if err != nil {
			return err
		}
		bs, err := prov.DecodeBundles(o.Data)
		if err != nil {
			return err
		}
		bundlesPer[i] = bs
		return nil
	})
	if err != nil {
		return nil, err
	}
	var all []prov.Bundle
	for _, bs := range bundlesPer {
		all = append(all, bs...)
	}
	return all, nil
}

// g builds (once) the scanned whole graph. Duplicate refs can exist if a
// scan raced an append; the first bundle wins.
func (x *s3Exec) g() (*prov.Graph, error) {
	if x.graph != nil {
		return x.graph, nil
	}
	bundles, err := x.scanStore()
	if err != nil {
		return nil, err
	}
	g := prov.NewGraph()
	for _, b := range bundles {
		if g.Node(b.Ref) == nil {
			g.AddBundle(b)
		}
	}
	x.graph = g
	return g, nil
}

func (x *s3Exec) emitNode(em *emitter, ref prov.Ref, depth int, b *prov.Bundle) error {
	return emitMatch(x.spec, em, ref, depth, b)
}

// runAll streams every scanned bundle in scan order — exactly what Q1's
// store plan returned (duplicates from racing appends included).
func (x *s3Exec) runAll(em *emitter) error {
	bundles, err := x.scanStore()
	if err != nil {
		return err
	}
	for i := range bundles {
		if err := x.emitNode(em, bundles[i].Ref, 0, &bundles[i]); err != nil {
			return err
		}
	}
	return nil
}

// runVersions is the targeted per-object plan: one GET of each root uuid's
// provenance object, no scan — Q2's two-request shape. Attribute roots have
// no targeted resolution on the store backend, so they fall back to the
// scanned graph.
func (x *s3Exec) runVersions(em *emitter) error {
	var uuids []uuid.UUID
	seen := make(map[uuid.UUID]bool)
	add := func(u uuid.UUID) {
		if !seen[u] {
			seen[u] = true
			uuids = append(uuids, u)
		}
	}
	for _, p := range x.spec.Roots.Paths {
		r, err := x.pathRef(p)
		if err != nil {
			return err
		}
		add(r.UUID)
	}
	for _, u := range x.spec.Roots.UUIDs {
		add(u)
	}
	for _, r := range x.spec.Roots.Refs {
		add(r.UUID)
	}
	if len(x.spec.Roots.Attrs) > 0 {
		g, err := x.g()
		if err != nil {
			return err
		}
		for _, n := range g.Nodes() {
			if matchAttrs(n, x.spec.Roots.Attrs) {
				add(n.Ref.UUID)
			}
		}
	}
	recorded := 0
	for _, u := range uuids {
		var bundles []prov.Bundle
		if x.graph != nil {
			// An attribute-root resolution already scanned everything; serve
			// the version set from the scanned graph instead of re-GETting
			// the provenance object.
			for _, n := range x.graph.Nodes() {
				if n.Ref.UUID == u {
					bundles = append(bundles, n.Bundle())
				}
			}
			if len(bundles) == 0 {
				continue
			}
		} else {
			var err error
			// One GET of the uuid's provenance object — Q2's targeted plan.
			bundles, err = core.ReadProvenance(x.e.dep, core.BackendS3, u)
			if errors.Is(err, core.ErrNoProvenance) {
				continue // tolerate ghost roots alongside recorded ones
			}
			if err != nil {
				return err
			}
		}
		recorded++
		for i := range bundles {
			if err := x.emitNode(em, bundles[i].Ref, 0, &bundles[i]); err != nil {
				return err
			}
		}
	}
	if recorded == 0 && len(uuids) > 0 {
		// No root has any recorded provenance — Q2's contract (and
		// core.ReadProvenance's) for the degenerate case.
		return core.ErrNoProvenance
	}
	return nil
}

func (x *s3Exec) runSelf(em *emitter) error {
	// Targeted fast path: exact refs and paths, refs-only emission.
	if len(x.spec.Roots.Attrs) == 0 && len(x.spec.Roots.UUIDs) == 0 &&
		x.spec.Filter == nil && x.spec.Project == ProjectRefs {
		seen := make(map[prov.Ref]bool)
		emitRef := func(r prov.Ref) error {
			if seen[r] {
				return nil
			}
			seen[r] = true
			return em.emit(Result{Ref: r})
		}
		for _, p := range x.spec.Roots.Paths {
			r, err := x.pathRef(p)
			if err != nil {
				return err
			}
			if err := emitRef(r); err != nil {
				return err
			}
		}
		for _, r := range x.spec.Roots.Refs {
			if err := emitRef(r); err != nil {
				return err
			}
		}
		return nil
	}
	refs, g, err := x.graphRoots()
	if err != nil {
		return err
	}
	for _, r := range refs {
		var b *prov.Bundle
		if n := g.Node(r); n != nil {
			nb := n.Bundle()
			b = &nb
		} else {
			continue // root never recorded
		}
		if err := x.emitNode(em, r, 0, b); err != nil {
			return err
		}
	}
	return nil
}

// runTraversal evaluates ancestors/descendants over the scanned graph.
// Descendants follow every cross-reference (the store plan sees the whole
// DAG, so it need not restrict itself to the indexed edge the database
// schema exposes); levels are emitted in canonical order.
func (x *s3Exec) runTraversal(em *emitter, up bool) error {
	frontier, g, err := x.graphRoots()
	if err != nil {
		return err
	}
	var children map[prov.Ref][]prov.Ref
	if !up {
		children = make(map[prov.Ref][]prov.Ref, g.Len())
		for _, n := range g.Nodes() {
			for _, rec := range n.Records {
				if rec.IsXref() {
					children[rec.Xref] = append(children[rec.Xref], n.Ref)
				}
			}
		}
	}
	seen := make(map[prov.Ref]bool)
	depth := 0
	if up {
		// Ancestors include their roots at depth 0.
		for _, r := range frontier {
			seen[r] = true
			if n := g.Node(r); n != nil {
				b := n.Bundle()
				if err := x.emitNode(em, r, 0, &b); err != nil {
					return err
				}
			}
		}
	}
	for len(frontier) > 0 {
		if x.spec.MaxDepth > 0 && depth >= x.spec.MaxDepth {
			break
		}
		depth++
		levelSet := make(map[prov.Ref]bool)
		var level []prov.Ref
		for _, r := range frontier {
			var adj []prov.Ref
			if up {
				adj = g.Parents(r)
			} else {
				adj = children[r]
			}
			for _, a := range adj {
				if !seen[a] && !levelSet[a] {
					levelSet[a] = true
					level = append(level, a)
				}
			}
		}
		sortRefs(level)
		next := level[:0]
		for _, r := range level {
			seen[r] = true
			n := g.Node(r)
			if n == nil {
				continue // dangling reference
			}
			next = append(next, r)
			b := n.Bundle()
			if err := x.emitNode(em, r, depth, &b); err != nil {
				return err
			}
		}
		frontier = next
	}
	return nil
}

// graphRoots resolves the root selectors against the scanned graph.
func (x *s3Exec) graphRoots() ([]prov.Ref, *prov.Graph, error) {
	g, err := x.g()
	if err != nil {
		return nil, nil, err
	}
	var out []prov.Ref
	seen := make(map[prov.Ref]bool)
	add := func(r prov.Ref) {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	for _, p := range x.spec.Roots.Paths {
		r, err := x.pathRef(p)
		if err != nil {
			return nil, nil, err
		}
		add(r)
	}
	for _, u := range x.spec.Roots.UUIDs {
		for _, n := range g.Nodes() {
			if n.Ref.UUID == u {
				add(n.Ref)
			}
		}
	}
	for _, r := range x.spec.Roots.Refs {
		add(r)
	}
	if len(x.spec.Roots.Attrs) > 0 {
		for _, n := range g.Nodes() {
			if matchAttrs(n, x.spec.Roots.Attrs) {
				add(n.Ref)
			}
		}
	}
	return out, g, nil
}

// pathRef forwards to the backend-shared resolvePath.
func (x *s3Exec) pathRef(path string) (prov.Ref, error) {
	return resolvePath(x.e.dep, path)
}

// matchAttrs evaluates a root attribute predicate against a graph node.
// Name and type match the node's decoded fields (the store backend folds
// them out of the records); other attributes match literal record values.
func matchAttrs(n *prov.Node, ms []AttrMatch) bool {
	for _, m := range ms {
		ok := false
		switch m.Attr {
		case prov.AttrName:
			ok = n.Name == m.Value
		case prov.AttrType:
			ok = n.Type.String() == m.Value
		default:
			for _, r := range n.Records {
				if r.Attr == m.Attr {
					if r.IsXref() {
						ok = r.Xref.String() == m.Value
					} else {
						ok = r.Value == m.Value
					}
					if ok {
						break
					}
				}
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
