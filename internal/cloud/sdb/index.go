package sdb

import "slices"

// Secondary indexes: real SimpleDB indexes every attribute on write, which
// is why its writes are expensive (sim/model.go's baseModel). Because reads
// are eventually consistent, an item may be observed at either of its
// retained versions (observe keeps up to two). The index therefore covers
// the union of all retained versions' attribute values: a lookup yields a
// superset of the items that could match, and Select re-resolves every
// candidate through observe and re-evaluates the full predicate against the
// version it actually sees. That preserves eventual consistency exactly — a
// candidate whose observed version no longer (or does not yet) match is
// dropped, and no matching item can be missed since every observable
// version is indexed.
//
// The index is also the store's value table. Each attribute index keeps its
// distinct values in a string table (strtab.go): a value's bytes are held
// once per attribute, in chunks the collector does not trace, and a
// version's attributes are (attribute id, value id) pairs pointing into it,
// so an environment string every item carries is held once per domain and
// every read returns that one copy. A postings entry holds item ids (the
// dense ids of the domain's item table), not names, and a distinct count,
// which is what the planner estimates an AND branch by. A value only one
// item carries, as most are, keeps that item inline; the items of a value
// several carry are an ascending []uint32 in the attribute's lists, with one
// entry per reference — a multi-valued attribute and two retained versions
// may each reference the same pair. No postings page holds a pointer.

// postings is the set of items carrying one (attribute, value) pair in any
// retained version.
type postings struct {
	one      uint32 // one item: its id; several: the index of their list in attrIndex.lists
	refs     uint32 // one item: its references
	distinct uint32 // distinct items
}

// attrIndex is the secondary index of one attribute: its values, their
// postings by value id, and (in vals) the sorted value view that serves
// range and prefix access paths.
type attrIndex struct {
	name  string
	id    uint32 // position in Domain.attrs
	vals  strtab
	ents  paged[postings] // by value id
	lists [][]uint32      // the shared values' item ids, ascending; nil while free
	free  []uint32        // free lists' indexes
}

// intern returns the value id of value, registering it on first sight.
func (ix *attrIndex) intern(value string) uint32 {
	vid := ix.vals.intern(value)
	if int(vid) == ix.ents.n {
		ix.ents.grow(1)
	}
	return vid
}

// appendIDs appends the items of p, one of ix's postings, to dst, once each;
// ix is read only when several items carry p's value.
func (ix *attrIndex) appendIDs(dst []uint32, p *postings) []uint32 {
	if p.distinct < 2 {
		return append(dst, p.one)
	}
	ids := ix.lists[p.one]
	for i, id := range ids {
		if i == 0 || ids[i-1] != id {
			dst = append(dst, id)
		}
	}
	return dst
}

// add records one reference from item id to value vid.
func (ix *attrIndex) add(vid, id uint32) {
	p := ix.ents.at(vid)
	if p.distinct < 2 {
		if p.distinct == 0 || p.one == id {
			p.one, p.distinct = id, 1
			p.refs++
			return
		}
		// A second item: the inline references move into a list.
		ids := make([]uint32, p.refs, p.refs+1)
		for i := range ids {
			ids[i] = p.one
		}
		if n := len(ix.free); n > 0 {
			p.one, ix.free = ix.free[n-1], ix.free[:n-1]
			ix.lists[p.one] = ids
		} else {
			p.one, ix.lists = uint32(len(ix.lists)), append(ix.lists, ids)
		}
		p.refs = 0
	}
	ids := ix.lists[p.one]
	if n := len(ids); ids[n-1] < id {
		// A new item's id is the largest yet unless it reuses a reaped one,
		// so a put almost always appends.
		ix.lists[p.one] = append(ids, id)
		p.distinct++
		return
	}
	i, found := slices.BinarySearch(ids, id)
	if !found {
		p.distinct++
	}
	ix.lists[p.one] = slices.Insert(ids, i, id)
}

// remove drops one reference from item id to value vid; a value no version
// references any more leaves the index and frees its id.
func (ix *attrIndex) remove(vid, id uint32) {
	p := ix.ents.at(vid)
	if p.distinct < 2 {
		if p.distinct == 1 && p.one == id {
			if p.refs--; p.refs == 0 {
				p.distinct = 0
			}
		}
		if p.distinct == 0 {
			ix.vals.remove(vid)
		}
		return
	}
	ids := ix.lists[p.one]
	i, found := slices.BinarySearch(ids, id)
	if !found {
		return
	}
	ids = slices.Delete(ids, i, i+1)
	ix.lists[p.one] = ids
	if i == len(ids) || ids[i] != id {
		p.distinct--
	}
	if p.distinct == 1 {
		// One item left: back inline, and the list goes.
		ix.lists[p.one], ix.free = nil, append(ix.free, p.one)
		p.one, p.refs = ids[0], uint32(len(ids))
	}
}

// lookup returns the postings of value, or nil when no item carries it.
func (ix *attrIndex) lookup(value string) *postings {
	if vid, ok, _ := ix.vals.lookup(value); ok {
		return ix.ents.at(vid)
	}
	return nil
}

// attrLocked returns the index of attribute name, creating it on first use.
func (d *Domain) attrLocked(name string) *attrIndex {
	ix := d.idx[name]
	if ix == nil {
		ix = &attrIndex{name: name, id: uint32(len(d.attrs)), vals: newStrtab()}
		d.idx[name] = ix
		d.attrs = append(d.attrs, ix)
	}
	return ix
}
