package sdb

import (
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
// index serves it and the caller must scan. Must run with d.mu held.
func (d *Domain) planLocked(n *Node) ([]string, bool) {
	if _, ok := d.estimateLocked(n); !ok {
		return nil, false
	}
	set := make(map[string]struct{})
	d.collectLocked(n, set)
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, true
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

// collectPostingsLocked adds the name of every item in p to set.
func (d *Domain) collectPostingsLocked(p *postings, set map[string]struct{}) {
	for i, id := range p.ids {
		if i == 0 || p.ids[i-1] != id {
			set[d.nameOf[id]] = struct{}{}
		}
	}
}

// collectLocked adds every candidate item name for n to set. Callers check
// estimateLocked first; collect follows the same branch choices.
func (d *Domain) collectLocked(n *Node, set map[string]struct{}) {
	switch n.op {
	case "and":
		lc, lok := d.estimateLocked(n.left)
		rc, rok := d.estimateLocked(n.right)
		switch {
		case lok && rok:
			if rc < lc {
				d.collectLocked(n.right, set)
			} else {
				d.collectLocked(n.left, set)
			}
		case lok:
			d.collectLocked(n.left, set)
		case rok:
			d.collectLocked(n.right, set)
		}
	case "or":
		d.collectLocked(n.left, set)
		d.collectLocked(n.right, set)
	case "=":
		d.collectEqLocked(n.attr, n.value, set)
	case "in":
		for _, v := range n.values {
			d.collectEqLocked(n.attr, v, set)
		}
	case "like":
		prefix, _ := likePrefix(n.value)
		d.collectPrefixLocked(n.attr, prefix, set)
	case ">", ">=", "<", "<=":
		d.collectRangeLocked(n.attr, n.op, n.value, set)
	}
}

// collectEqLocked resolves one equality lookup into set.
func (d *Domain) collectEqLocked(attr, value string, set map[string]struct{}) {
	if attr == ItemNameKey {
		// Existence and visibility are checked by observe later.
		set[value] = struct{}{}
		return
	}
	if ix := d.idx[attr]; ix != nil {
		if p := ix.lookup(value); p != nil {
			d.collectPostingsLocked(p, set)
		}
	}
}

// collectPrefixLocked resolves a LIKE 'prefix%' through the sorted value
// list (or the sorted name table for itemName()).
func (d *Domain) collectPrefixLocked(attr, prefix string, set map[string]struct{}) {
	if attr == ItemNameKey {
		names := d.sortedNamesLocked()
		for i := sort.SearchStrings(names, prefix); i < len(names) && strings.HasPrefix(names[i], prefix); i++ {
			set[names[i]] = struct{}{}
		}
		return
	}
	ix := d.idx[attr]
	if ix == nil {
		return
	}
	vals := ix.orderedVals()
	for i := sort.SearchStrings(vals, prefix); i < len(vals) && strings.HasPrefix(vals[i], prefix); i++ {
		d.collectPostingsLocked(ix.lookup(vals[i]), set)
	}
}

// collectRangeLocked resolves an ordering comparison: the satisfying values
// form one contiguous interval of the sorted value list.
func (d *Domain) collectRangeLocked(attr, op, bound string, set map[string]struct{}) {
	if attr == ItemNameKey {
		names := d.sortedNamesLocked()
		lo, hi := rangeBounds(names, op, bound)
		for _, name := range names[lo:hi] {
			set[name] = struct{}{}
		}
		return
	}
	ix := d.idx[attr]
	if ix == nil {
		return
	}
	vals := ix.orderedVals()
	lo, hi := rangeBounds(vals, op, bound)
	for _, v := range vals[lo:hi] {
		d.collectPostingsLocked(ix.lookup(v), set)
	}
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
