package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/cloud/store"
	"passcloud/internal/prov"
	"passcloud/internal/uuid"
)

// Provenance-to-item conversion shared by P2 and P3's commit daemon.
//
// One bundle (one object version) becomes one database item named
// uuid_version — the one-row-per-version scheme of §4.3.2 — whose
// attribute-value pairs are the bundle's records. Cross references are
// stored as uuid_version strings so queries can follow them. Values larger
// than the database's 1 KB limit are stored as store objects under
// SpillPrefix and replaced by a SpillMarker pointer.

// ItemsForBundles converts bundles into database put requests, spilling
// oversized values to st. It returns the requests in bundle order.
func ItemsForBundles(st *store.Store, bundles []prov.Bundle) ([]sdb.PutRequest, error) {
	reqs, _ := itemsFor(nil, nil, bundles)
	if err := spillItems(st, reqs); err != nil {
		return nil, err
	}
	return reqs, nil
}

// itemsFor converts bundles into put requests in bundle order, values over
// the database's limit left in place for spillItems, reusing the memory of
// reqs and of slab, the attribute slab the requests share, and returns both.
// The item names are rendered once, into one string, and a cross reference
// to a bundle of the same call reuses that bundle's name. The requests
// share no memory with bundles but their strings.
func itemsFor(reqs []sdb.PutRequest, slab []sdb.Attr, bundles []prov.Bundle) ([]sdb.PutRequest, []sdb.Attr) {
	size, nattrs := 0, 0
	for _, b := range bundles {
		size += refLen(b.Ref)
		nattrs += len(b.Records)
	}
	var sb strings.Builder
	sb.Grow(size)
	var tmp [uuid.StringLen + 1 + 20]byte
	for _, b := range bundles {
		sb.Write(b.Ref.AppendTo(tmp[:0]))
	}
	names := sb.String()
	reqs = slices.Grow(reqs[:0], len(bundles))
	for _, b := range bundles {
		n := refLen(b.Ref)
		reqs = append(reqs, sdb.PutRequest{Item: names[:n], Replace: true})
		names = names[n:]
	}
	slab = slices.Grow(slab[:0], nattrs)
	for bi, b := range bundles {
		start := len(slab)
		for _, r := range b.Records {
			value := r.Value
			if r.IsXref() {
				value = refName(bundles, reqs, r.Xref)
			}
			slab = append(slab, sdb.Attr{Name: r.Attr, Value: value})
		}
		reqs[bi].Attrs = slab[start:len(slab):len(slab)]
	}
	return reqs, slab
}

// spillItems stores each value over the database's limit as a store object
// under SpillPrefix and puts a SpillMarker pointer in its place, in request
// and attribute order, stopping at the first failure.
func spillItems(st *store.Store, reqs []sdb.PutRequest) error {
	for _, req := range reqs {
		for i, a := range req.Attrs {
			if len(a.Value) <= sdb.MaxValueLen {
				continue
			}
			key := fmt.Sprintf("%s%s/%s/%d", SpillPrefix, req.Item, a.Name, i)
			if err := st.Put(key, []byte(a.Value), nil); err != nil {
				return fmt.Errorf("core: spilling %s of %s: %w", a.Name, req.Item, err)
			}
			req.Attrs[i].Value = SpillMarker + key
		}
	}
	return nil
}

// refLen is len(r.String()).
func refLen(r prov.Ref) int {
	var tmp [20]byte
	return uuid.StringLen + 1 + len(strconv.AppendInt(tmp[:0], int64(r.Version), 10))
}

// refName renders ref, reusing the item name of the request for a bundle
// of the same call when ref names one.
func refName(bundles []prov.Bundle, reqs []sdb.PutRequest, ref prov.Ref) string {
	for i := range bundles {
		if bundles[i].Ref == ref {
			return reqs[i].Item
		}
	}
	return ref.String()
}

// BundlesFromItems reconstructs the bundles of a SELECT result, one per item
// in order, each attribute one record. The records share one slab, each
// bundle's Records capacity-capped (nil for none) so an append to one never
// writes another's; a bundle kept past the rest pins the whole slab.
func BundlesFromItems(items []sdb.Item) (bundles []prov.Bundle, err error) {
	n := 0
	for _, it := range items {
		n += len(it.Attrs)
	}
	bundles, recs := make([]prov.Bundle, len(items)), make([]prov.Record, 0, n)
	for i, it := range items {
		if bundles[i], recs, err = BundleFromItem(recs, it); err != nil {
			return nil, err
		}
	}
	return bundles, nil
}

// BundleFromItem is BundlesFromItems' per-item form: it decodes one item
// into a bundle whose records it appends to recs, capped as there.
func BundleFromItem(recs []prov.Record, it sdb.Item) (prov.Bundle, []prov.Record, error) {
	ref, err := prov.ParseRef(it.Name)
	if err != nil {
		return prov.Bundle{}, recs, err
	}
	b, start := prov.Bundle{Ref: ref}, len(recs)
	for _, a := range it.Attrs {
		switch a.Name {
		case prov.AttrType:
			if t, err := prov.ParseObjectType(a.Value); err == nil {
				b.Type = t
			}
		case prov.AttrName:
			b.Name = a.Value
		case prov.AttrInput, prov.AttrPrevVer, prov.AttrForkParent, prov.AttrExecFile:
			xref, err := prov.ParseRef(a.Value)
			if err != nil {
				return prov.Bundle{}, recs, fmt.Errorf("core: bad xref %q on %s: %v", a.Value, it.Name, err)
			}
			recs = append(recs, prov.Record{Attr: a.Name, Xref: xref})
			continue
		}
		recs = append(recs, prov.Record{Attr: a.Name, Value: a.Value})
	}
	if len(recs) > start {
		b.Records = recs[start:len(recs):len(recs)]
	}
	return b, recs, nil
}

// ItemSpec describes one synthetic provenance item for bulk population —
// the minimal attribute set the query engine navigates by.
type ItemSpec struct {
	Ref   prov.Ref
	Type  string // "file" | "proc" | "pipe"
	Name  string // object name; empty omits the attribute
	Input string // xref value (uuid_version); empty omits the attribute
}

// PopulateItems bulk-writes provenance-shaped items with maximal batches at
// the SimpleDB connection ceiling — the setup path of the large-N query
// benchmarks, which need domains far bigger than a workload replay builds.
func PopulateItems(db *sdb.DomainSet, specs []ItemSpec) error {
	reqs := make([]sdb.PutRequest, 0, len(specs))
	for _, s := range specs {
		attrs := []sdb.Attr{{Name: prov.AttrType, Value: s.Type}}
		if s.Name != "" {
			attrs = append(attrs, sdb.Attr{Name: prov.AttrName, Value: s.Name})
		}
		if s.Input != "" {
			attrs = append(attrs, sdb.Attr{Name: prov.AttrInput, Value: s.Input})
		}
		reqs = append(reqs, sdb.PutRequest{Item: s.Ref.String(), Attrs: attrs, Replace: true})
	}
	return db.BulkPut(reqs, 40, false)
}
