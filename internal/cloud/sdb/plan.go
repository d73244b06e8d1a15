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
// does not hold, indexing candidates.missing: examined, and observed absent.
const missingTag = 1 << 31

// candidates is one read's plan, which the Result being drained holds: its
// pages re-plan only once a write or a reap has moved the generation, gen.
type candidates struct {
	ids     []uint32 // in name order, each once
	missing []string // the itemName() values the item table lacks
	gen     uint64
	planned bool // ids, missing and indexed hold a plan made at gen
	indexed bool // an index serves the predicate; false: the caller scans
}

// leaf is what the plan collects for a span predicate, or for one =/IN
// value: its postings in ix, or for an itemName() value a one-item postings
// of its candidate (and no ix).
type leaf struct {
	span *Node
	ix   *attrIndex
	p    postings
}

// planLocked returns where's candidates, resolving them into c unless c
// holds them at the domain's generation, or ok=false when no index serves
// where and the caller must scan. c must hold no other predicate's plan
// (Result.Reset forgets it). Must run with d.mu held.
func (d *Domain) planLocked(where *Node, c *candidates) ([]uint32, bool) {
	if c.planned && c.gen == d.gen {
		return c.ids, c.indexed
	}
	d.leaves, c.missing = d.leaves[:0], c.missing[:0]
	bound, ok := d.resolveLocked(where, c)
	ids := c.ids[:0]
	if ok {
		if bound < unknownCost { // the leaves' ids, repeats included: one allocation
			ids = slices.Grow(ids, bound)
		}
		for _, l := range d.leaves {
			if l.span != nil {
				ids = d.collectSpanLocked(l.span, ids)
			} else {
				ids = l.ix.appendIDs(ids, &l.p)
			}
		}
		ids = d.orderLocked(ids, c)
	}
	*c = candidates{ids: ids, missing: c.missing, gen: d.gen, planned: true, indexed: ok}
	return ids, ok
}

// resolveLocked appends n's leaves to d.leaves, an AND keeping only its
// cheaper branch's (the left on a tie), and the itemName() values the item
// table lacks to c.missing, and returns an upper bound on n's candidates
// and whether n is index-servable.
func (d *Domain) resolveLocked(n *Node, c *candidates) (int, bool) {
	switch n.op {
	case "and":
		mark := len(d.leaves)
		lc, lok := d.resolveLocked(n.left, c)
		mid := len(d.leaves)
		rc, rok := d.resolveLocked(n.right, c)
		if rok && (!lok || rc < lc) {
			d.leaves = slices.Delete(d.leaves, mark, mid)
			return rc, true
		}
		d.leaves = d.leaves[:mid]
		return lc, lok
	case "or":
		lc, lok := d.resolveLocked(n.left, c)
		rc, rok := d.resolveLocked(n.right, c)
		return lc + rc, lok && rok
	case "=":
		return d.resolveEqLocked(c, n.attr, n.value), true
	case "in":
		return d.resolveEqLocked(c, n.attr, n.values...), true
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
func (d *Domain) resolveEqLocked(c *candidates, attr string, values ...string) (total int) {
	ix := d.idx[attr]
	for _, v := range values {
		if attr == ItemNameKey {
			id, held, _ := d.items.lookup(v)
			if !held {
				id, c.missing = missingTag|uint32(len(c.missing)), append(c.missing, v)
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

// name returns the name of candidate id, one of c's or a held item's.
func (c *candidates) name(d *Domain, id uint32) string {
	if id&missingTag != 0 {
		return c.missing[id&^missingTag]
	}
	return d.items.str(id)
}

// orderLocked puts ids, repeats included (an IN's postings and an OR's
// branches may overlap), into name order, each once.
func (d *Domain) orderLocked(ids []uint32, c *candidates) []uint32 {
	byName := func(a, b uint32) int { return strings.Compare(c.name(d, a), c.name(d, b)) }
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
