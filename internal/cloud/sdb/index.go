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
// every read returns that one copy. A postings list holds item ids (the
// dense ids of the domain's item table), not names: an ascending []uint32
// with one entry per reference — a multi-valued attribute and two retained
// versions may each reference the same pair — and a distinct count, which
// is what the planner estimates an AND branch by. A value only one item
// carries, as most are, keeps that item inline and owns no slice.

// postings is the set of items carrying one (attribute, value) pair in any
// retained version. While one item carries the pair, ids is nil and the
// item and its references are inline.
type postings struct {
	ids      []uint32 // two or more items: item ids, ascending, one entry per reference
	one      uint32   // one item: its id
	refs     uint32   // one item: its references
	distinct uint32   // distinct items
}

// add records one reference from item id.
func (p *postings) add(id uint32) {
	if p.ids == nil {
		if p.distinct == 0 || p.one == id {
			p.one, p.distinct = id, 1
			p.refs++
			return
		}
		// A second item: the inline references move into a slice.
		p.ids = make([]uint32, p.refs, p.refs+1)
		for i := range p.ids {
			p.ids[i] = p.one
		}
		p.one, p.refs = 0, 0
	}
	n := len(p.ids)
	if p.ids[n-1] < id {
		// A new item's id is the largest yet unless it reuses a reaped one,
		// so a put almost always appends.
		p.ids = append(p.ids, id)
		p.distinct++
		return
	}
	i, found := slices.BinarySearch(p.ids, id)
	if !found {
		p.distinct++
	}
	p.ids = slices.Insert(p.ids, i, id)
}

// remove drops one reference from item id; it reports true when the
// postings became empty.
func (p *postings) remove(id uint32) bool {
	if p.ids == nil {
		if p.distinct == 1 && p.one == id {
			if p.refs--; p.refs == 0 {
				p.distinct = 0
			}
		}
		return p.distinct == 0
	}
	i, found := slices.BinarySearch(p.ids, id)
	if !found {
		return false
	}
	p.ids = slices.Delete(p.ids, i, i+1)
	if i == len(p.ids) || p.ids[i] != id {
		p.distinct--
	}
	if p.distinct == 1 {
		// One item left: back inline, and the slice goes.
		p.one, p.refs, p.ids = p.ids[0], uint32(len(p.ids)), nil
	}
	return false
}

// attrIndex is the secondary index of one attribute: its values, their
// postings by value id, and (in vals) the sorted value view that serves
// range and prefix access paths.
type attrIndex struct {
	name string
	id   uint32 // position in Domain.attrs
	vals strtab
	ents paged[postings] // by value id
}

// intern returns the value id of value, registering it on first sight.
func (ix *attrIndex) intern(value string) uint32 {
	vid := ix.vals.intern(value)
	if int(vid) == ix.ents.n {
		ix.ents.grow(1)
	}
	return vid
}

// remove drops one reference from item id to value vid; a value no version
// references any more leaves the index and frees its id.
func (ix *attrIndex) remove(vid, id uint32) {
	if ix.ents.at(vid).remove(id) {
		ix.vals.remove(vid)
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

// indexAddLocked registers one retained version's pairs under item id.
func (d *Domain) indexAddLocked(id uint32, pairs []pair) {
	for _, p := range pairs {
		d.attrs[p.attr].ents.at(p.val).add(id)
	}
}

// indexRemoveLocked unregisters a version that fell out of the retained
// history.
func (d *Domain) indexRemoveLocked(id uint32, pairs []pair) {
	for _, p := range pairs {
		d.attrs[p.attr].remove(p.val, id)
	}
}
