package sdb

import (
	"slices"
	"sort"
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

// planCache memoizes one query's resolved candidate list (Domain.lastPlan)
// so a paginated drain resolves its access path once, not once per page.
// Any write bumps the domain's generation counter and invalidates it.
type planCache struct {
	q       *Query
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
		lc, lok := d.estimateLocked(n.left)
		rc, rok := d.estimateLocked(n.right)
		switch {
		case lok && rok:
			if rc < lc {
				return rc, true
			}
			return lc, true
		case lok:
			return lc, true
		case rok:
			return rc, true
		}
		return 0, false
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

// postingsSizeLocked returns the candidate count of one equality lookup.
func (d *Domain) postingsSizeLocked(attr, value string) int {
	if attr == ItemNameKey {
		return 1
	}
	if ix := d.idx[attr]; ix != nil {
		if p := ix.lookup(value); p != nil {
			return p.distinct
		}
	}
	return 0
}

// collectPostingsLocked appends the name of every item in p to names, once
// each.
func (d *Domain) collectPostingsLocked(p *postings, names []string) []string {
	for i, id := range p.ids {
		if i == 0 || p.ids[i-1] != id {
			names = append(names, d.nameOf[id])
		}
	}
	return names
}

// collectLocked appends every candidate item name for n to names. Callers
// check estimateLocked first; collect follows the same branch choices.
func (d *Domain) collectLocked(n *Node, names []string) []string {
	switch n.op {
	case "and":
		lc, lok := d.estimateLocked(n.left)
		rc, rok := d.estimateLocked(n.right)
		switch {
		case lok && rok:
			if rc < lc {
				names = d.collectLocked(n.right, names)
			} else {
				names = d.collectLocked(n.left, names)
			}
		case lok:
			names = d.collectLocked(n.left, names)
		case rok:
			names = d.collectLocked(n.right, names)
		}
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
		names = d.collectPrefixLocked(n.attr, prefix, names)
	case ">", ">=", "<", "<=":
		names = d.collectRangeLocked(n.attr, n.op, n.value, names)
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
			names = d.collectPostingsLocked(p, names)
		}
	}
	return names
}

// collectPrefixLocked resolves a LIKE 'prefix%' through the sorted value
// list (or the sorted name table for itemName()).
func (d *Domain) collectPrefixLocked(attr, prefix string, names []string) []string {
	if attr == ItemNameKey {
		all := d.sortedNamesLocked()
		for i := sort.SearchStrings(all, prefix); i < len(all) && strings.HasPrefix(all[i], prefix); i++ {
			names = append(names, all[i])
		}
		return names
	}
	ix := d.idx[attr]
	if ix == nil {
		return names
	}
	vals := ix.orderedVals()
	for i := sort.SearchStrings(vals, prefix); i < len(vals) && strings.HasPrefix(vals[i], prefix); i++ {
		names = d.collectPostingsLocked(ix.lookup(vals[i]), names)
	}
	return names
}

// collectRangeLocked resolves an ordering comparison: the satisfying values
// form one contiguous interval of the sorted value list.
func (d *Domain) collectRangeLocked(attr, op, bound string, names []string) []string {
	if attr == ItemNameKey {
		all := d.sortedNamesLocked()
		lo, hi := rangeBounds(all, op, bound)
		return append(names, all[lo:hi]...)
	}
	ix := d.idx[attr]
	if ix == nil {
		return names
	}
	vals := ix.orderedVals()
	lo, hi := rangeBounds(vals, op, bound)
	for _, v := range vals[lo:hi] {
		names = d.collectPostingsLocked(ix.lookup(v), names)
	}
	return names
}

// rangeBounds returns the half-open interval of sorted satisfying op bound.
func rangeBounds(sorted []string, op, bound string) (lo, hi int) {
	switch op {
	case ">":
		return sort.SearchStrings(sorted, bound+"\x00"), len(sorted)
	case ">=":
		return sort.SearchStrings(sorted, bound), len(sorted)
	case "<":
		return 0, sort.SearchStrings(sorted, bound)
	case "<=":
		return 0, sort.SearchStrings(sorted, bound+"\x00")
	}
	return 0, 0
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
