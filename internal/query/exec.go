package query

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"
	"strconv"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/core"
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

// Run plans and executes spec against the engine's backend, streaming
// results as the plan produces them: whole levels for traversals, decoded
// pages for scans. The sequence yields at most one non-nil error, as its
// final element. Traversal levels are emitted in canonical ref order, so a
// given (deployment, spec) pair streams deterministically regardless of
// shard count, fan-out or cache state.
func (e *Engine) Run(spec Spec) iter.Seq2[Result, error] {
	return func(yield func(Result, error) bool) {
		var err error
		switch {
		case spec.Direction != All && spec.Roots.IsZero():
			err = fmt.Errorf("query: direction %s needs at least one root", spec.Direction)
		case e.backend == core.BackendS3:
			err = e.plan(spec, nil).run(yield)
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
			err = e.plan(spec, view).run(yield)
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
// participates. The source that would execute the spec describes itself, so
// the line cannot drift from the plan.
func (e *Engine) Describe(spec Spec) string {
	return e.plan(spec, nil).src.describe()
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

// needBundles reports whether client-side emission requires full bundles.
func (s Spec) needBundles() bool {
	return s.Project == ProjectBundles || s.Filter != nil
}

// source is one backend's access paths — everything about executing a Spec
// that is not the traversal itself. §5.3 runs Q1–Q4 as one algorithm over
// store objects and database items; Table 5 prices these two
// implementations, not two traversals. A returned bundle map (never nil)
// holds the bundles the read shipped anyway; the executor fetches the rest.
type source interface {
	// describe names the access paths the spec would take.
	describe() string
	// all returns every recorded node — bare refs when the spec needs no
	// bundles. The nodes owe the executor's residue: a source with a pushed
	// predicate narrows the read by it.
	all() ([]prov.Bundle, error)
	// attrRoots resolves an attribute predicate to the nodes satisfying it.
	// With fuse the roots are the result set itself (Self), so the source
	// may narrow the read by its pushed predicate as all does.
	attrRoots(ms []AttrMatch, fuse bool) ([]prov.Ref, map[prov.Ref]*prov.Bundle, error)
	// versions returns every recorded version of an object, or
	// core.ErrNoProvenance when it has none.
	versions(u uuid.UUID) ([]prov.Bundle, error)
	// bundles fetches the bundles of exact refs; never-recorded refs are
	// simply absent from the result. With reach > 0 the source may also
	// ship earlier versions of refs — at most reach below each, none that
	// known holds — for the Ancestors walk to find when its prev edges get
	// there; such a pad missing from the result was merely not fetched.
	bundles(refs []prov.Ref, known map[prov.Ref]*prov.Bundle, reach int) (map[prov.Ref]*prov.Bundle, error)
	// children finds the nodes that directly depend on refs, in any order
	// and as often as they were found, putting any bundle the read shipped
	// in w.bundles. A terminal level feeds no further frontier, so there —
	// and only there — the source may narrow the read by its pushed
	// predicate. Elsewhere it may also ask later versions of refs that ride
	// a version chain, within w.reach, and record their children in w.
	children(refs []prov.Ref, w *descent) ([]prov.Ref, error)
}

// descent is one Descendants walk as its levels' child reads see it:
// whether this level is the last of a bounded walk, how many levels below
// it the walk can still go (0 on a terminal level), the previous level's
// frontier (nil on the roots' level), every bundle a child read shipped,
// and the memo — in canonical order, each ref a padded read answered
// before the walk reached it, with its complete child list.
type descent struct {
	terminal bool
	reach    int
	prev     []prov.Ref
	bundles  map[prov.Ref]*prov.Bundle
	memo     []answer
}

type answer struct {
	ref  prov.Ref
	kids []prov.Ref
}

// answered returns the children the memo holds for r.
func (w *descent) answered(r prov.Ref) ([]prov.Ref, bool) {
	if i, ok := slices.BinarySearchFunc(w.memo, r, func(a answer, r prov.Ref) int { return a.ref.Compare(r) }); ok {
		return w.memo[i].kids, true
	}
	return nil, false
}

// chained reports whether r rides a version chain, so that the walk will
// likely ask r+1 next: the previous level holds an earlier version of r's
// object, or, on the roots' level, which has none before it, r has one.
func (w *descent) chained(r prov.Ref) bool {
	return w.prev == nil && r.Version > 1 ||
		slices.ContainsFunc(w.prev, func(p prov.Ref) bool { return p.UUID == r.UUID && p.Version < r.Version })
}

// exec is one execution of a Spec: the traversal, root resolution and
// emission every backend shares, over the source that backend provides.
type exec struct {
	e    *Engine
	spec Spec
	src  source
	// residue is what a node still owes client-side after a read the source
	// may narrow (all, fused attrRoots, terminal children): the half of
	// spec.Filter not pushed. Nodes from any other read owe spec.Filter.
	residue *Filter
}

// yieldFunc is the consumer's end of Run's iterator. It travels down the
// traversal as an argument, never through a source or a stored field, so it
// does not escape and the consumer's loop body stays on its stack.
type yieldFunc = func(Result, error) bool

// plan binds spec to this engine's backend. view is the routing snapshot a
// database execution reads through; describing a plan needs none.
func (e *Engine) plan(spec Spec, view *sdb.DomainView) *exec {
	if spec.Workers <= 0 {
		spec.Workers = DefaultWorkers
	}
	x := &exec{e: e, spec: spec, residue: spec.Filter}
	if e.backend == core.BackendS3 {
		x.src = &s3Source{e: e, spec: &x.spec}
		return x
	}
	db := &dbSource{e: e, spec: &x.spec, view: view}
	db.pushed, x.residue, _ = e.splitFilter(spec)
	x.src = db
	return x
}

func (x *exec) run(yield yieldFunc) error {
	if x.spec.Direction == All {
		nodes, err := x.src.all()
		if err != nil {
			return err
		}
		for i := range nodes {
			if err := x.emit(yield, nodes[i].Ref, 0, &nodes[i], x.residue); err != nil {
				return err
			}
		}
		return nil
	}
	roots, known, err := x.roots()
	if err != nil {
		return err
	}
	switch x.spec.Direction {
	case Self:
		return x.runSelf(yield, roots, known)
	case Versions:
		return x.runVersions(yield, roots)
	case Descendants:
		return x.runDescendants(yield, roots)
	case Ancestors:
		return x.runAncestors(yield, roots, known)
	}
	return fmt.Errorf("query: unknown direction %d", x.spec.Direction)
}

// emit applies the filter a node still owes and the spec's projection,
// identically on every backend and plan. A filter can only be evaluated
// against a fetched bundle; a node whose bundle an eventually consistent
// read hid is skipped rather than guessed at. A filtered result carries its
// bundle whether the filter ran here or in a SELECT, so turning pushdown on
// or off never changes the result stream, only what the reads examine and
// ship. errStop tells the traversal the consumer declined the result.
func (x *exec) emit(yield yieldFunc, ref prov.Ref, depth int, b *prov.Bundle, owed *Filter) error {
	if owed != nil && (b == nil || !owed.Match(b)) {
		return nil
	}
	r := Result{Ref: ref, Depth: depth}
	if b != nil && x.spec.needBundles() {
		r.Bundle = b
	}
	if !yield(r, nil) {
		return errStop
	}
	return nil
}

// roots resolves the root selectors to exact node refs: paths through
// their primary-object metadata links, uuids through their recorded version
// sets, attribute predicates through the source. Duplicates keep their
// first position. Bundles the resolution had to fetch anyway (the uuid
// version sets) are returned alongside so callers that need root bundles do
// not re-fetch the same immutable items. The Versions direction selects
// objects rather than nodes: every ref comes back as its uuid at version 0,
// and uuid roots are not expanded.
func (x *exec) roots() ([]prov.Ref, map[prov.Ref]*prov.Bundle, error) {
	objects := x.spec.Direction == Versions
	var out []prov.Ref
	var known map[prov.Ref]*prov.Bundle
	if !objects {
		known = make(map[prov.Ref]*prov.Bundle)
	}
	seen := make(map[prov.Ref]bool)
	add := func(r prov.Ref) {
		if objects {
			r.Version = 0
		}
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	for _, p := range x.spec.Roots.Paths {
		r, err := resolvePath(x.e.dep, p)
		if err != nil {
			return nil, nil, err
		}
		add(r)
	}
	for _, u := range x.spec.Roots.UUIDs {
		if objects {
			add(prov.Ref{UUID: u})
			continue
		}
		bundles, err := x.src.versions(u)
		if errors.Is(err, core.ErrNoProvenance) {
			continue // an unrecorded object contributes no roots, like a ghost Ref
		}
		if err != nil {
			return nil, nil, err
		}
		for i := range bundles {
			add(bundles[i].Ref)
			known[bundles[i].Ref] = &bundles[i]
		}
	}
	for _, r := range x.spec.Roots.Refs {
		add(r)
	}
	if len(x.spec.Roots.Attrs) > 0 {
		// Only Self emits its roots, so only there may the filter narrow them.
		refs, shipped, err := x.src.attrRoots(x.spec.Roots.Attrs, x.spec.Direction == Self)
		if err != nil {
			return nil, nil, err
		}
		for _, r := range refs {
			add(r)
		}
		for r, b := range shipped {
			known[r] = b
		}
	}
	return out, known, nil
}

// fill fetches the bundles of refs that known does not hold yet — reusing
// anything an earlier read shipped (root version sets, full-item child
// lookups, earlier levels of a diamond-shaped DAG, versions an Ancestors
// level prefetched). Refs that were never recorded stay absent. reach is
// how far below each ref the source may prefetch versions (0: none).
func (x *exec) fill(known map[prov.Ref]*prov.Bundle, refs []prov.Ref, reach int) error {
	var missing []prov.Ref
	for _, r := range refs {
		if known[r] == nil {
			missing = append(missing, r)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	fetched, err := x.src.bundles(missing, known, reach)
	if err != nil {
		return err
	}
	for r, b := range fetched {
		known[r] = b
	}
	return nil
}

// runSelf emits the resolved roots themselves. A refs-only find emits every
// root the selectors name, recorded or not; one that needs bundles skips a
// root that was never recorded — there is nothing to filter or project.
func (x *exec) runSelf(yield yieldFunc, refs []prov.Ref, known map[prov.Ref]*prov.Bundle) error {
	if x.spec.needBundles() {
		if err := x.fill(known, refs, 0); err != nil {
			return err
		}
	}
	for _, r := range refs {
		b := known[r]
		if x.spec.needBundles() && b == nil {
			continue
		}
		if err := x.emit(yield, r, 0, b, x.residue); err != nil {
			return err
		}
	}
	return nil
}

func (x *exec) runVersions(yield yieldFunc, objects []prov.Ref) error {
	recorded := 0
	for _, o := range objects {
		bundles, err := x.src.versions(o.UUID)
		if errors.Is(err, core.ErrNoProvenance) {
			continue // tolerate ghost roots alongside recorded ones
		}
		if err != nil {
			return err
		}
		recorded++
		for i := range bundles {
			if err := x.emit(yield, bundles[i].Ref, 0, &bundles[i], x.spec.Filter); err != nil {
				return err
			}
		}
	}
	if recorded == 0 && len(objects) > 0 {
		// No root has any recorded provenance — Q2's contract (and
		// core.ReadProvenance's) for the degenerate case.
		return core.ErrNoProvenance
	}
	return nil
}

// runDescendants is the BFS plan: one child lookup per DAG level (§5.3:
// "repeat the second step recursively"), each level emitted in canonical
// order. Which edges make a child is the source's business — the database
// follows its indexed input edge, the store every cross-reference. A level
// whose refs an earlier padded read already answered asks nothing.
func (x *exec) runDescendants(yield yieldFunc, frontier []prov.Ref) error {
	seen := make(map[prov.Ref]bool)
	w := &descent{bundles: make(map[prov.Ref]*prov.Bundle)}
	bounded := x.spec.MaxDepth > 0
	for depth := 1; len(frontier) > 0 && (!bounded || depth <= x.spec.MaxDepth); depth++ {
		// The last level of a bounded walk feeds no further frontier, so the
		// source may drop non-matching children before they ship (Q3's
		// shape, and the final level of any depth-bounded Q4). Inner levels
		// must return every child to keep the traversal complete — the
		// filter selects output, not the walk.
		w.terminal, w.reach = bounded && depth == x.spec.MaxDepth, math.MaxInt
		if bounded {
			w.reach = x.spec.MaxDepth - depth
		}
		var kids []prov.Ref
		pending := frontier
		if len(w.memo) > 0 {
			pending = nil
			for _, r := range frontier {
				if k, ok := w.answered(r); ok {
					kids = append(kids, k...)
				} else {
					pending = append(pending, r)
				}
			}
		}
		// Children a padded read answered came unnarrowed, so they owe the
		// whole filter even on a terminal level.
		owed := x.spec.Filter
		if w.terminal && len(pending) == len(frontier) {
			owed = x.residue
		}
		if len(pending) > 0 {
			fetched, err := x.src.children(pending, w)
			if err != nil {
				return err
			}
			kids = append(fetched, kids...)
		}
		next := kids[:0]
		for _, r := range kids {
			if !seen[r] {
				seen[r] = true
				next = append(next, r)
			}
		}
		slices.SortFunc(next, prov.Ref.Compare)
		if x.spec.needBundles() {
			if err := x.fill(w.bundles, next, 0); err != nil {
				return err
			}
		}
		for _, r := range next {
			if err := x.emit(yield, r, depth, w.bundles[r], owed); err != nil {
				return err
			}
		}
		w.prev, frontier = frontier, next
	}
	return nil
}

// runAncestors walks dependency edges upward: the roots are emitted at
// depth 0, then each level's bundles are fetched and their cross references
// become the next frontier. Dangling references — ancestors whose
// provenance was never recorded — are skipped, as the causal-ordering
// detector treats them. PASS links every version to the one before it, so a
// level's fetch may prefetch earlier versions of its refs, but never more
// than the levels the walk has left could reach.
func (x *exec) runAncestors(yield yieldFunc, frontier []prov.Ref, known map[prov.Ref]*prov.Bundle) error {
	seen := make(map[prov.Ref]bool)
	for _, r := range frontier {
		seen[r] = true // a root that is also another root's ancestor emits once
	}
	for depth := 0; len(frontier) > 0; depth++ {
		reach := math.MaxInt
		if x.spec.MaxDepth > 0 {
			reach = x.spec.MaxDepth - depth
		}
		if err := x.fill(known, frontier, reach); err != nil {
			return err
		}
		for _, r := range frontier {
			if b := known[r]; b != nil {
				if err := x.emit(yield, r, depth, b, x.spec.Filter); err != nil {
					return err
				}
			}
		}
		if x.spec.MaxDepth > 0 && depth >= x.spec.MaxDepth {
			break
		}
		var next []prov.Ref
		for _, r := range frontier {
			if b := known[r]; b != nil {
				for _, p := range b.Ancestors() {
					if !seen[p] {
						seen[p] = true
						next = append(next, p)
					}
				}
			}
		}
		slices.SortFunc(next, prov.Ref.Compare)
		frontier = next
	}
	return nil
}
