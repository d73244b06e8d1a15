package sdb

import "slices"

// Secondary indexes. Real SimpleDB indexes every attribute on write (which
// is why its writes are expensive — see the calibration anchors on
// baseModel in sim/model.go); the simulation keeps the same invariant so
// SELECT can resolve equality, IN, prefix and range predicates through an
// index instead of scanning the whole domain.
//
// Because reads are eventually consistent, an item may be observed at
// either of its retained versions (observe keeps up to two). The index
// therefore covers the union of all retained versions' attribute values: a
// lookup yields a superset of the items that could match, and Select
// re-resolves every candidate through observe and re-evaluates the full
// predicate against the version it actually sees. That preserves eventual
// consistency exactly — a candidate whose observed version no longer (or
// does not yet) match is dropped, and no matching item can be missed since
// every observable version is indexed.
//
// The index is also the store's value table. Each attribute index interns
// its values: the key of vals is the one stored copy of a value, and a
// version's attributes are (attribute id, value id) pairs pointing into it,
// so an environment string every item carries is held once per domain. A
// postings list holds item ids (the dense ids of the domain's item table),
// not names: an ascending []uint32 with one entry per reference — a
// multi-valued attribute and two retained versions may each reference the
// same pair — and a distinct count, which is what the planner estimates an
// AND branch by. Nothing in a postings list, a version or an item record is
// a pointer, so the collector has nothing in them to mark.

// postings is the set of items carrying one (attribute, value) pair in any
// retained version.
type postings struct {
	ids      []uint32 // item ids, ascending, one entry per reference
	distinct int      // distinct ids in ids
}

// add records one reference from item id.
func (p *postings) add(id uint32) {
	n := len(p.ids)
	if n == 0 || p.ids[n-1] < id {
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
	i, found := slices.BinarySearch(p.ids, id)
	if !found {
		return len(p.ids) == 0
	}
	p.ids = slices.Delete(p.ids, i, i+1)
	if i == len(p.ids) || p.ids[i] != id {
		p.distinct--
	}
	return len(p.ids) == 0
}

// valEntry is one interned value of an attribute and its postings.
type valEntry struct {
	value string
	post  postings
}

// attrIndex is the secondary index of one attribute: its interned values
// and their postings, plus a sorted value list serving range and prefix
// access paths.
type attrIndex struct {
	name   string
	id     uint32            // position in Domain.attrs
	vals   map[string]uint32 // value → value id; the key is the stored copy
	ents   []valEntry        // by value id
	free   []uint32          // value ids no retained version references
	sorted *sortedKeys       // cached ascending values
}

// intern returns the value id of value, registering it on first sight.
func (ix *attrIndex) intern(value string) uint32 {
	if vid, ok := ix.vals[value]; ok {
		return vid
	}
	var vid uint32
	if n := len(ix.free); n > 0 {
		vid, ix.free = ix.free[n-1], ix.free[:n-1]
	} else {
		vid = uint32(len(ix.ents))
		ix.ents = append(ix.ents, valEntry{})
	}
	ix.ents[vid].value = value
	ix.vals[value] = vid
	ix.sorted.add(value)
	return vid
}

// remove drops one reference from item id to value vid; a value no version
// references any more leaves the index and frees its id.
func (ix *attrIndex) remove(vid, id uint32) {
	e := &ix.ents[vid]
	if !e.post.remove(id) {
		return
	}
	delete(ix.vals, e.value)
	ix.sorted.remove()
	*e = valEntry{}
	ix.free = append(ix.free, vid)
}

// lookup returns the postings of value, or nil when no item carries it.
func (ix *attrIndex) lookup(value string) *postings {
	if vid, ok := ix.vals[value]; ok {
		return &ix.ents[vid].post
	}
	return nil
}

// orderedVals returns the distinct indexed values in ascending order.
func (ix *attrIndex) orderedVals() []string { return sortedOf(&ix.sorted, ix.vals) }

// attrLocked returns the index of attribute name, creating it on first use.
func (d *Domain) attrLocked(name string) *attrIndex {
	ix := d.idx[name]
	if ix == nil {
		ix = &attrIndex{name: name, id: uint32(len(d.attrs)), vals: make(map[string]uint32)}
		d.idx[name] = ix
		d.attrs = append(d.attrs, ix)
	}
	return ix
}

// indexAddLocked registers one retained version's pairs under item id.
func (d *Domain) indexAddLocked(id uint32, pairs []pair) {
	for _, p := range pairs {
		d.attrs[p.attr].ents[p.val].post.add(id)
	}
}

// indexRemoveLocked unregisters a version that fell out of the retained
// history.
func (d *Domain) indexRemoveLocked(id uint32, pairs []pair) {
	for _, p := range pairs {
		d.attrs[p.attr].remove(p.val, id)
	}
}
