package query

import (
	"fmt"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/prov"
)

// Filter pushdown: lowering conjunctive type/name/attribute equalities from
// a Spec's Filter into the SELECT grammar, so the simulated SimpleDB's
// planner (internal/cloud/sdb/plan.go) serves them from its secondary
// indexes and responses ship only matching items. Non-pushable shapes —
// disjunctions, negations, the empty-name probe — stay client-side as a
// residue, preserving Filter semantics exactly.

// splitFilter decides how the database source evaluates spec's filter: the
// half lowered into SELECT predicates, the residue a narrowed read still
// owes client-side (the whole filter when nothing is pushed), and — when
// nothing is pushed — why not. The executor runs on the first two and
// Describe prints the third, so the plan line cannot disagree with the plan.
// Pushdown engages only where it wins: the whole-domain scan, pure
// attribute-rooted finds (the predicate fuses into the root SELECT) and the
// terminal levels of depth-bounded descendant walks. An unbounded walk has
// no terminal level (every level feeds the frontier, so every child must
// ship regardless of the filter); Versions and Ancestors fetch full bundles
// on their access paths anyway, so pushing their filters would save
// nothing; cached engines skip pushdown entirely — their observations
// answer reads before any SELECT is planned, and the observation keys
// describe unfiltered sets.
func (e *Engine) splitFilter(spec Spec) (pushed *sdb.Node, residue *Filter, reason string) {
	f := spec.Filter
	switch {
	case f == nil:
		return nil, nil, ""
	case !e.pushdown:
		return nil, f, "pushdown off"
	case e.cache != nil:
		return nil, f, "cached observations answer before SELECTs"
	}
	switch spec.Direction {
	case Versions, Ancestors:
		return nil, f, "plan fetches bundles anyway"
	case Descendants:
		if spec.MaxDepth <= 0 {
			return nil, f, "unbounded walk: every level feeds the frontier"
		}
	case Self:
		if len(spec.Roots.Attrs) == 0 || len(spec.Roots.Paths) > 0 ||
			len(spec.Roots.UUIDs) > 0 || len(spec.Roots.Refs) > 0 {
			return nil, f, "non-attribute roots"
		}
	}
	pushed, residue = lowerFilter(f)
	if pushed == nil {
		return nil, f, "no lowerable conjunctive terms"
	}
	return pushed, residue, ""
}

// describeFilter names how the spec's filter — if any — would be evaluated:
// lowered into SELECT predicates, split into a pushed half and a client
// residue, or run client-side in full, with the reason.
func (e *Engine) describeFilter(spec Spec) string {
	pushed, residue, reason := e.splitFilter(spec)
	switch {
	case spec.Filter == nil:
		return ""
	case pushed == nil:
		return "; filter client-side (" + reason + ")"
	case residue != nil:
		return fmt.Sprintf("; filter split: [%s] pushed into SELECTs, residue %s client-side",
			pushed, residue)
	}
	return fmt.Sprintf("; filter [%s] pushed into SELECTs", pushed)
}

// lowerFilter splits f into a server predicate and a client residue such
// that, for every bundle decoded from a stored provenance item,
//
//	f.Match(bundle) == pushed.Matches(item) && residue.Match(bundle)
//
// Either half may be nil (match-everything). The split leans on the item
// schema invariants: every item carries exactly one type attribute and at
// most one name attribute, cross references are stored in their uuid_version
// form (the form AttrEq compares), and oversized values appear as spill
// markers identically in the item and the decoded records — so a leaf
// equality means the same thing on both sides.
func lowerFilter(f *Filter) (pushed *sdb.Node, residue *Filter) {
	if f == nil {
		return nil, nil
	}
	switch f.op {
	case "and":
		lp, lr := lowerFilter(f.left)
		rp, rr := lowerFilter(f.right)
		return andNode(lp, rp), andFilter(lr, rr)
	case "type":
		return sdb.Eq(prov.AttrType, f.typ.String()), nil
	case "name":
		if f.value == "" {
			// NameIs("") matches bundles with no recorded name (pipes), but
			// no stored attribute equals the empty string — not lowerable.
			return nil, f
		}
		return sdb.Eq(prov.AttrName, f.value), nil
	case "attr":
		if f.attr == sdb.ItemNameKey {
			// The pseudo-attribute would compare item names server-side but
			// record values client-side; keep the client meaning.
			return nil, f
		}
		return sdb.Eq(f.attr, f.value), nil
	}
	// "or" / "not" and anything unknown: evaluated client-side in full.
	return nil, f
}

// andNode conjoins two optional server predicates.
func andNode(l, r *sdb.Node) *sdb.Node {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	return sdb.And(l, r)
}

// andFilter conjoins two optional client residues.
func andFilter(l, r *Filter) *Filter {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	return And(l, r)
}
