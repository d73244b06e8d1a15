package sdb

import (
	"slices"
	"strings"
)

// Query planning: map a predicate tree onto the secondary indexes.
//
// planLocked resolves a predicate, in one pass that looks each value up
// once, into candidate item ids in name order, each once: a superset of the
// items that could satisfy it at any observable version. Select walks only
// those, so NextToken resumes as on the scan path, re-checking the full
// predicate against the version each read observes.
//
//   - equality and IN resolve to postings (an itemName() value to its id);
//   - LIKE 'prefix%' and the ordering comparisons resolve to spans of an
//     attribute's sorted values (or of the sorted item names);
//   - AND needs only one indexable branch — its candidates are already a
//     superset of the conjunction — and picks the cheaper one;
//   - OR unions both branches and requires both to be indexable;
//   - !=, IS NULL, IS NOT NULL and suffix LIKE fall back to the scan.

// unknownCost ranks range/prefix paths below exact postings lookups when an
// AND picks its cheaper branch; their candidate count is unknown upfront.
const unknownCost = 1 << 30

// missingTag marks a candidate that is an itemName() value the item table
// does not hold, indexing Domain.missing: examined, and observed absent.
const missingTag = 1 << 31

// planCache memoizes one predicate's candidates (Domain.lastPlan) so a
// paginated drain resolves its access path once, not once per page. Any
// write or reap bumps the domain's generation and invalidates it; holding
// the predicate keeps its address from being reused.
type planCache struct {
	where   *Node
	gen     uint64
	ids     []uint32
	indexed bool
}

// leaf is what the plan collects for a span predicate, or for one =/IN
// value: its postings in ix, or for an itemName() value a one-item postings
// of its candidate (and no ix).
type leaf struct {
	span *Node
	ix   *attrIndex
	p    postings
}

// planLocked returns where's candidates (scratch, valid until the next
// plan), or ok=false when no index serves it and the caller must scan. Must
// run with d.mu held.
func (d *Domain) planLocked(where *Node) ([]uint32, bool) {
	if c := d.lastPlan; c.where == where && c.gen == d.gen {
		return c.ids, c.indexed
	}
	d.leaves, d.missing = d.leaves[:0], d.missing[:0]
	_, ok := d.resolveLocked(where)
	ids := d.lastPlan.ids[:0] // the scratch the last plan used
	if ok {
		for _, l := range d.leaves {
			if l.span != nil {
				ids = d.collectSpanLocked(l.span, ids)
			} else {
				ids = l.ix.appendIDs(ids, &l.p)
			}
		}
		ids = d.orderLocked(ids)
	}
	d.lastPlan = planCache{where: where, gen: d.gen, ids: ids, indexed: ok}
	return ids, ok
}

// resolveLocked appends n's leaves to d.leaves, an AND keeping only its
// cheaper branch's (the left on a tie), and returns an upper bound on n's
// candidates and whether n is index-servable.
func (d *Domain) resolveLocked(n *Node) (int, bool) {
	switch n.op {
	case "and":
		mark := len(d.leaves)
		lc, lok := d.resolveLocked(n.left)
		mid := len(d.leaves)
		rc, rok := d.resolveLocked(n.right)
		if rok && (!lok || rc < lc) {
			d.leaves = slices.Delete(d.leaves, mark, mid)
			return rc, true
		}
		d.leaves = d.leaves[:mid]
		return lc, lok
	case "or":
		lc, lok := d.resolveLocked(n.left)
		rc, rok := d.resolveLocked(n.right)
		return lc + rc, lok && rok
	case "=":
		return d.resolveEqLocked(n.attr, n.value), true
	case "in":
		return d.resolveEqLocked(n.attr, n.values...), true
	case "like", ">", ">=", "<", "<=":
		if _, ok := likePrefix(n.value); n.op == "like" && !ok {
			return 0, false
		}
		d.leaves = append(d.leaves, leaf{span: n})
		return unknownCost, true
	}
	// "", "!=": IS NULL / IS NOT NULL / inequality need the full table.
	return 0, false
}

// resolveEqLocked resolves each equality value to a leaf and returns their
// candidate count: the distinct items carrying each, or one per itemName()
// value, held or not (existence and visibility are checked by observe).
func (d *Domain) resolveEqLocked(attr string, values ...string) (total int) {
	ix := d.idx[attr]
	for _, v := range values {
		if attr == ItemNameKey {
			id, held, _ := d.items.lookup(v)
			if !held {
				id, d.missing = missingTag|uint32(len(d.missing)), append(d.missing, v)
			}
			d.leaves = append(d.leaves, leaf{p: postings{one: id, distinct: 1}})
			total++
		} else if ix != nil {
			if p := ix.lookup(v); p != nil {
				d.leaves = append(d.leaves, leaf{ix: ix, p: *p})
				total += int(p.distinct)
			}
		}
	}
	return total
}

// collectSpanLocked appends the candidates of a LIKE 'prefix%' or an
// ordering comparison: one span of the attribute's sorted values, or of the
// sorted item names, whose ids are the candidates themselves.
func (d *Domain) collectSpanLocked(n *Node, ids []uint32) []uint32 {
	bound := n.value
	if n.op == "like" {
		bound, _ = likePrefix(bound)
	}
	if n.attr == ItemNameKey {
		sorted := d.items.sorted()
		lo, hi := d.items.span(sorted, n.op, bound)
		return append(ids, sorted[lo:hi]...)
	}
	if ix := d.idx[n.attr]; ix != nil {
		vals := ix.vals.sorted()
		lo, hi := ix.vals.span(vals, n.op, bound)
		for _, vid := range vals[lo:hi] {
			ids = ix.appendIDs(ids, ix.ents.at(vid))
		}
	}
	return ids
}

// candName returns the name of candidate c.
func (d *Domain) candName(c uint32) string {
	if c&missingTag != 0 {
		return d.missing[c&^missingTag]
	}
	return d.items.str(c)
}

// orderLocked puts ids, repeats included (an IN's postings and an OR's
// branches may overlap), into name order, each once.
func (d *Domain) orderLocked(ids []uint32) []uint32 {
	byName := func(a, b uint32) int { return strings.Compare(d.candName(a), d.candName(b)) }
	slices.SortFunc(ids, byName)
	return slices.CompactFunc(ids, func(a, b uint32) bool { return byName(a, b) == 0 })
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
