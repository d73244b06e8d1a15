package sdb

import (
	"slices"
	"strings"
)

// Query planning: map a predicate tree onto the secondary indexes.
//
// planLocked resolves a predicate into the sorted, deduplicated list of
// candidate item names — a superset of the items that could satisfy it at
// any observable version. Select then walks only those candidates (in name
// order, so NextToken pagination resumes exactly like the scan path),
// re-checking the full predicate against the version each read observes.
//
//   - equality and IN resolve to postings lookups;
//   - LIKE 'prefix%' and the ordering comparisons resolve to ranges over an
//     attribute's sorted values (or over the sorted item names for
//     itemName() predicates);
//   - AND needs only one indexable branch — its candidates are already a
//     superset of the conjunction — and picks the cheaper one;
//   - OR unions both branches and requires both to be indexable;
//   - !=, IS NULL, IS NOT NULL and suffix LIKE fall back to the scan.

// unknownCost ranks range/prefix paths below exact postings lookups when an
// AND picks its cheaper branch; their candidate count is unknown upfront.
const unknownCost = 1 << 30

// planCache memoizes one predicate's candidate list (Domain.lastPlan) so a
// paginated drain resolves its access path once, not once per page. Any
// write bumps the domain's generation and invalidates it; holding the
// predicate keeps its address from being reused.
type planCache struct {
	where   *Node
	gen     uint64
	names   []string
	indexed bool
}

// planLocked returns the candidate item names for n, or ok=false when no
// index serves it and the caller must scan. The collectors append every
// name they reach, repeats included (an IN's postings and an OR's branches
// may overlap), to one slice, sized by the estimate when it is exact;
// sorting and compacting it once yields the same sorted, deduplicated list
// a set would. Must run with d.mu held.
func (d *Domain) planLocked(n *Node) ([]string, bool) {
	est, ok := d.estimateLocked(n)
	if !ok {
		return nil, false
	}
	var names []string
	if est < unknownCost {
		names = make([]string, 0, est)
	}
	names = d.collectLocked(n, names)
	slices.Sort(names)
	return slices.Compact(names), true
}

// estimateLocked reports whether n is index-servable and an upper bound on
// the candidates it would yield (used to pick AND branches).
func (d *Domain) estimateLocked(n *Node) (int, bool) {
	switch n.op {
	case "and":
		_, c, ok := d.andBranchLocked(n)
		return c, ok
	case "or":
		lc, lok := d.estimateLocked(n.left)
		rc, rok := d.estimateLocked(n.right)
		if !lok || !rok {
			return 0, false
		}
		return lc + rc, true
	case "=":
		return d.postingsSizeLocked(n.attr, n.value), true
	case "in":
		total := 0
		for _, v := range n.values {
			total += d.postingsSizeLocked(n.attr, v)
		}
		return total, true
	case "like":
		if _, ok := likePrefix(n.value); ok {
			return unknownCost, true
		}
		return 0, false
	case ">", ">=", "<", "<=":
		return unknownCost, true
	}
	// "", "!=": IS NULL / IS NOT NULL / inequality need the full table.
	return 0, false
}

// andBranchLocked returns the branch of an AND the planner resolves: the
// index-servable one, or the cheaper when both are, the left on a tie.
func (d *Domain) andBranchLocked(n *Node) (*Node, int, bool) {
	lc, lok := d.estimateLocked(n.left)
	rc, rok := d.estimateLocked(n.right)
	if rok && (!lok || rc < lc) {
		return n.right, rc, true
	}
	return n.left, lc, lok
}

// postingsSizeLocked returns the candidate count of one equality lookup.
func (d *Domain) postingsSizeLocked(attr, value string) int {
	if attr == ItemNameKey {
		return 1
	}
	if ix := d.idx[attr]; ix != nil {
		if p := ix.lookup(value); p != nil {
			return int(p.distinct)
		}
	}
	return 0
}

// collectPostingsLocked appends the name of every item in p, a postings
// entry of ix, to names, once each.
func (d *Domain) collectPostingsLocked(ix *attrIndex, p *postings, names []string) []string {
	ids := ix.ids(p)
	if ids == nil {
		return append(names, d.items.str(p.one))
	}
	for i, id := range ids {
		if i == 0 || ids[i-1] != id {
			names = append(names, d.items.str(id))
		}
	}
	return names
}

// collectLocked appends every candidate item name for n to names. Callers
// check estimateLocked first; collect follows the same branch choices.
func (d *Domain) collectLocked(n *Node, names []string) []string {
	switch n.op {
	case "and":
		b, _, _ := d.andBranchLocked(n)
		names = d.collectLocked(b, names)
	case "or":
		names = d.collectLocked(n.left, names)
		names = d.collectLocked(n.right, names)
	case "=":
		names = d.collectEqLocked(n.attr, n.value, names)
	case "in":
		for _, v := range n.values {
			names = d.collectEqLocked(n.attr, v, names)
		}
	case "like":
		prefix, _ := likePrefix(n.value)
		names = d.collectSpanLocked(n.attr, "like", prefix, names)
	case ">", ">=", "<", "<=":
		names = d.collectSpanLocked(n.attr, n.op, n.value, names)
	}
	return names
}

// collectEqLocked resolves one equality lookup onto names.
func (d *Domain) collectEqLocked(attr, value string, names []string) []string {
	if attr == ItemNameKey {
		// Existence and visibility are checked by observe later.
		return append(names, value)
	}
	if ix := d.idx[attr]; ix != nil {
		if p := ix.lookup(value); p != nil {
			names = d.collectPostingsLocked(ix, p, names)
		}
	}
	return names
}

// collectSpanLocked resolves a LIKE 'prefix%' or an ordering comparison:
// the satisfying values form one contiguous span of the attribute's sorted
// values (of the sorted item names for itemName()).
func (d *Domain) collectSpanLocked(attr, op, bound string, names []string) []string {
	tab, ix := &d.items, d.idx[attr]
	if attr != ItemNameKey {
		if ix == nil {
			return names
		}
		tab = &ix.vals
	}
	ids := tab.sorted()
	lo, hi := tab.span(ids, op, bound)
	names = slices.Grow(names, hi-lo) // at least one candidate per value
	for _, id := range ids[lo:hi] {
		if attr == ItemNameKey {
			names = append(names, tab.str(id))
		} else {
			names = d.collectPostingsLocked(ix, ix.ents.at(id), names)
		}
	}
	return names
}

// likePrefix extracts the prefix of an index-servable LIKE pattern: either
// 'prefix%' or an exact pattern with no wildcard. Patterns with a leading %
// (suffix match) are not index-servable.
func likePrefix(pattern string) (string, bool) {
	if strings.HasPrefix(pattern, "%") {
		return "", false
	}
	if strings.HasSuffix(pattern, "%") {
		return strings.TrimSuffix(pattern, "%"), true
	}
	return pattern, true
}
