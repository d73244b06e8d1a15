package sdb

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
// every observable version is indexed. Entries are reference-counted so
// that multi-valued attributes and overlapping versions remove cleanly.

// postings is the set of item names carrying one (attribute, value) pair in
// any retained version.
type postings struct {
	refs   map[string]int
	sorted *sortedKeys // cached ascending item names
}

func (p *postings) add(item string) {
	if p.refs[item] == 0 {
		p.sorted.add(item)
	}
	p.refs[item]++
}

// remove drops one reference; it reports true when the postings became empty.
func (p *postings) remove(item string) bool {
	n, ok := p.refs[item]
	if !ok {
		return len(p.refs) == 0
	}
	if n <= 1 {
		delete(p.refs, item)
		p.sorted.remove()
	} else {
		p.refs[item] = n - 1
	}
	return len(p.refs) == 0
}

// names returns the item names in ascending order.
func (p *postings) names() []string { return sortedOf(&p.sorted, p.refs) }

// attrIndex is the secondary index of one attribute: value → postings, plus
// a sorted value list serving range and prefix access paths.
type attrIndex struct {
	vals   map[string]*postings
	sorted *sortedKeys // cached ascending values
}

func newAttrIndex() *attrIndex { return &attrIndex{vals: make(map[string]*postings)} }

func (ix *attrIndex) add(value, item string) {
	p := ix.vals[value]
	if p == nil {
		p = &postings{refs: make(map[string]int)}
		ix.vals[value] = p
		ix.sorted.add(value)
	}
	p.add(item)
}

func (ix *attrIndex) remove(value, item string) {
	p := ix.vals[value]
	if p == nil {
		return
	}
	if p.remove(item) {
		delete(ix.vals, value)
		ix.sorted.remove()
	}
}

// orderedVals returns the distinct indexed values in ascending order.
func (ix *attrIndex) orderedVals() []string { return sortedOf(&ix.sorted, ix.vals) }

// indexAddLocked registers one retained item version's attributes.
func (d *Domain) indexAddLocked(item string, attrs []Attr) {
	for _, a := range attrs {
		ix := d.idx[a.Name]
		if ix == nil {
			ix = newAttrIndex()
			d.idx[a.Name] = ix
		}
		ix.add(a.Value, item)
	}
}

// indexRemoveLocked unregisters a version that fell out of the retained
// history.
func (d *Domain) indexRemoveLocked(item string, attrs []Attr) {
	for _, a := range attrs {
		if ix := d.idx[a.Name]; ix != nil {
			ix.remove(a.Value, item)
		}
	}
}
