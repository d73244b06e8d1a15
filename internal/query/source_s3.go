package query

import (
	"slices"

	"passcloud/internal/core"
	"passcloud/internal/par"
	"passcloud/internal/prov"
	"passcloud/internal/uuid"
)

// The store source (P1): targeted provenance-object GETs where the roots
// name their objects directly, otherwise the only plan the store offers —
// fetch every provenance object and evaluate the query locally (§5.3:
// "process the query locally"). Nothing is pushed down and nothing is
// cached: the whole filter stays owed to the executor, and every query
// re-scans (see Engine.SetCache).

type s3Source struct {
	e    *Engine
	spec *Spec
	// The lazily scanned whole graph, its refs in canonical order, and its
	// reverse cross-reference index (built on the first child lookup).
	graph *prov.Graph
	refs  []prov.Ref
	kids  map[prov.Ref][]prov.Ref
}

// scans reports whether the spec is answered from the scanned graph. The
// store indexes nothing, so only roots that name their objects get targeted
// plans: the versions of an object are one GET of its provenance object
// (Q2's two-request shape), and a refs-only find over paths and refs reads
// no provenance at all. Attribute roots have no targeted resolution, and
// once one forces the scan everything else is served from it too.
func (s *s3Source) scans() bool {
	switch {
	case len(s.spec.Roots.Attrs) > 0:
		return true
	case s.spec.Direction == Versions:
		return false
	case s.spec.Direction == Self:
		return len(s.spec.Roots.UUIDs) > 0 || s.spec.needBundles()
	}
	return true
}

func (s *s3Source) describe() string {
	switch {
	case s.scans():
		return "s3: whole-graph scan (LIST + parallel GETs), local evaluation"
	case s.spec.Direction == Versions:
		return "s3: targeted provenance-object GETs (one per root uuid)"
	}
	return "s3: targeted HEAD/GET root resolution, no scan"
}

// all fetches every provenance object from the store — the only plan
// available to the S3 backend for whole-graph queries — and returns the
// bundles in scan order, exactly what Q1's store plan returned (duplicates
// from racing appends included). The GETs run on up to Workers connections
// (the LIST pagination itself is sequential).
func (s *s3Source) all() ([]prov.Bundle, error) {
	keys, _, err := s.e.dep.Store.ListAll(core.ProvPrefix)
	if err != nil {
		return nil, err
	}
	bundlesPer := make([][]prov.Bundle, len(keys))
	err = par.ForEach(s.spec.Workers, len(keys), func(i int) error {
		o, err := s.e.dep.Store.Get(keys[i])
		if err != nil {
			return err
		}
		bundlesPer[i], err = prov.DecodeBundles(o.Data)
		return err
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
func (s *s3Source) g() (*prov.Graph, error) {
	if s.graph != nil {
		return s.graph, nil
	}
	bundles, err := s.all()
	if err != nil {
		return nil, err
	}
	g := prov.NewGraph()
	var refs []prov.Ref
	for _, b := range bundles {
		if g.Node(b.Ref) != nil {
			continue
		}
		if err := g.AddBundle(b); err != nil {
			return nil, err
		}
		refs = append(refs, b.Ref)
	}
	slices.SortFunc(refs, prov.Ref.Compare)
	s.graph, s.refs = g, refs
	return g, nil
}

// attrRoots evaluates the predicate over the scanned graph.
func (s *s3Source) attrRoots(ms []AttrMatch, _ bool) ([]prov.Ref, map[prov.Ref]*prov.Bundle, error) {
	g, err := s.g()
	if err != nil {
		return nil, nil, err
	}
	var out []prov.Ref
	for _, r := range s.refs {
		if matchAttrs(g.Node(r), ms) {
			out = append(out, r)
		}
	}
	return out, nil, nil
}

// versions is one GET of the uuid's provenance object — Q2's targeted plan
// — unless the spec scans anyway; then the version set is served from the
// scanned graph instead of re-GETting the object. Either way the versions
// come back in canonical order, as the database returns them.
func (s *s3Source) versions(u uuid.UUID) ([]prov.Bundle, error) {
	if !s.scans() {
		out, err := core.ReadProvenance(s.e.dep, core.BackendS3, u)
		slices.SortFunc(out, func(a, b prov.Bundle) int { return a.Ref.Compare(b.Ref) })
		return out, err
	}
	g, err := s.g()
	if err != nil {
		return nil, err
	}
	var out []prov.Bundle
	for _, r := range s.refs {
		if r.UUID == u {
			out = append(out, g.Node(r).Bundle())
		}
	}
	if len(out) == 0 {
		return nil, core.ErrNoProvenance
	}
	return out, nil
}

// bundles serves exact refs from the scanned graph; the store has no
// batched read to pad, so reach is ignored.
func (s *s3Source) bundles(refs []prov.Ref, _ map[prov.Ref]*prov.Bundle, _ int) (map[prov.Ref]*prov.Bundle, error) {
	g, err := s.g()
	if err != nil {
		return nil, err
	}
	out := make(map[prov.Ref]*prov.Bundle, len(refs))
	for _, r := range refs {
		if n := g.Node(r); n != nil {
			b := n.Bundle()
			out[r] = &b
		}
	}
	return out, nil
}

// children follows every cross-reference downward: the store plan sees the
// whole DAG, so it need not restrict itself to the indexed edge the database
// schema exposes.
func (s *s3Source) children(refs []prov.Ref, _ *descent) ([]prov.Ref, error) {
	g, err := s.g()
	if err != nil {
		return nil, err
	}
	if s.kids == nil {
		s.kids = make(map[prov.Ref][]prov.Ref, g.Len())
		for _, r := range s.refs {
			for _, rec := range g.Node(r).Records {
				if rec.IsXref() {
					s.kids[rec.Xref] = append(s.kids[rec.Xref], r)
				}
			}
		}
	}
	var out []prov.Ref
	for _, r := range refs {
		out = append(out, s.kids[r]...)
	}
	return out, nil
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
			ok = hasRecord(n.Records, m.Attr, m.Value)
		}
		if !ok {
			return false
		}
	}
	return true
}
