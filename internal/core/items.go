package core

import (
	"fmt"
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

// itemsFor converts bundles into database put requests, spilling oversized
// values to st. It returns the requests in bundle order. The item names are
// rendered once, into one string, and a cross reference to a bundle of the
// same call reuses that bundle's name; the attributes share one slab.
func itemsFor(st *store.Store, bundles []prov.Bundle) ([]sdb.PutRequest, error) {
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
	reqs := make([]sdb.PutRequest, len(bundles))
	for i, b := range bundles {
		n := refLen(b.Ref)
		reqs[i] = sdb.PutRequest{Item: names[:n], Replace: true}
		names = names[n:]
	}
	slab := make([]sdb.Attr, 0, nattrs)
	for bi, b := range bundles {
		start := len(slab)
		for i, r := range b.Records {
			value := r.Value
			if r.IsXref() {
				value = refName(bundles, reqs, r.Xref)
			} else if len(value) > sdb.MaxValueLen {
				key := fmt.Sprintf("%s%s/%s/%d", SpillPrefix, b.Ref, r.Attr, i)
				if err := st.Put(key, []byte(value), nil); err != nil {
					return nil, fmt.Errorf("core: spilling %s of %s: %w", r.Attr, b.Ref, err)
				}
				value = SpillMarker + key
			}
			slab = append(slab, sdb.Attr{Name: r.Attr, Value: value})
		}
		reqs[bi].Attrs = slab[start:len(slab):len(slab)]
	}
	return reqs, nil
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

// putItems writes the requests through the domain set's bulk writer:
// BatchPutAttributes in groups of at most 25 (the service limit), each batch
// addressed to one shard so every call stays a single service request.
// Unordered mode (the measured paths) partitions the requests by home shard
// first, filling each shard's batches to the brim, and runs the calls on up
// to conns concurrent connections; ordered mode preserves the global
// ancestors-first order. During a live reshard the set double-writes every
// item to both epoch homes (see sdb.DomainSet.BulkPut).
func putItems(db *sdb.DomainSet, reqs []sdb.PutRequest, conns int, ordered bool) error {
	return db.BulkPut(reqs, conns, ordered)
}

// ResolveValue fetches a possibly spilled attribute value: inline values
// return as-is, SpillMarker pointers are fetched from the store.
func ResolveValue(st *store.Store, value string) (string, error) {
	if len(value) < len(SpillMarker) || value[:len(SpillMarker)] != SpillMarker {
		return value, nil
	}
	o, err := st.Get(value[len(SpillMarker):])
	if err != nil {
		return "", err
	}
	return string(o.Data), nil
}

// bundleFromItem reconstructs a provenance bundle from a database item; the
// query engine uses it to rebuild DAG fragments from query results.
func bundleFromItem(it sdb.Item) (prov.Bundle, error) {
	ref, err := prov.ParseRef(it.Name)
	if err != nil {
		return prov.Bundle{}, err
	}
	b := prov.Bundle{Ref: ref}
	for _, a := range it.Attrs {
		switch a.Name {
		case prov.AttrType:
			if t, err := prov.ParseObjectType(a.Value); err == nil {
				b.Type = t
			}
			b.Records = append(b.Records, prov.Record{Attr: a.Name, Value: a.Value})
		case prov.AttrName:
			b.Name = a.Value
			b.Records = append(b.Records, prov.Record{Attr: a.Name, Value: a.Value})
		case prov.AttrInput, prov.AttrPrevVer, prov.AttrForkParent, prov.AttrExecFile:
			xref, err := prov.ParseRef(a.Value)
			if err != nil {
				return prov.Bundle{}, fmt.Errorf("core: bad xref %q on %s: %v", a.Value, it.Name, err)
			}
			b.Records = append(b.Records, prov.Record{Attr: a.Name, Xref: xref})
		default:
			b.Records = append(b.Records, prov.Record{Attr: a.Name, Value: a.Value})
		}
	}
	return b, nil
}

// BundleFromItem is the exported form used by the query engine.
func BundleFromItem(it sdb.Item) (prov.Bundle, error) { return bundleFromItem(it) }

// ItemsForBundles is the exported form of the bundle-to-item conversion,
// used by the benchmark harness's batch-size ablation.
func ItemsForBundles(st *store.Store, bundles []prov.Bundle) ([]sdb.PutRequest, error) {
	return itemsFor(st, bundles)
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
	return putItems(db, reqs, 40, false)
}
