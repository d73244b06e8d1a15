package core

import (
	"errors"
	"fmt"
	"slices"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/prov"
	"passcloud/internal/uuid"
)

// Backend names where a protocol keeps its provenance; the detection code
// and the query engine dispatch on it.
type Backend uint8

// Provenance backends.
const (
	BackendNone Backend = iota // the S3fs baseline records no provenance
	BackendS3                  // P1: provenance objects in the store
	BackendSDB                 // P2, P3: items in the database
)

// BackendOf reports where a protocol keeps provenance.
func BackendOf(p Protocol) Backend {
	switch p.(type) {
	case *P1:
		return BackendS3
	case *P2, *P3:
		return BackendSDB
	default:
		return BackendNone
	}
}

// ErrNotCoupled reports that an object's data and provenance do not match.
var ErrNotCoupled = errors.New("core: data and provenance are not coupled")

// ErrNoProvenance reports that an object has no recorded provenance at all.
var ErrNoProvenance = errors.New("core: no provenance recorded")

// ReadProvenance returns every bundle recorded for an object uuid from the
// given backend. For the S3 backend this is one GET of the provenance
// object; for the database backend it is a SELECT over the uuid's items.
func ReadProvenance(dep *Deployment, backend Backend, u uuid.UUID) ([]prov.Bundle, error) {
	switch backend {
	case BackendS3:
		o, err := dep.Store.Get(ProvKey(u))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrNoProvenance, err)
		}
		return prov.DecodeBundles(o.Data)
	case BackendSDB:
		// Acquire (not just snapshot) the routing view: the registration
		// makes a concurrent reshard's GC wait for this read instead of
		// deleting the uuid's items from their old home mid-lookup.
		v, release := dep.DB.AcquireView()
		defer release()
		return ReadProvenanceView(v, u, new(sdb.Result))
	}
	return nil, fmt.Errorf("core: backend records no provenance")
}

// ReadProvenanceView is ReadProvenance's database path against an explicit
// routing view: one item per version, named uuid_version, so a name-prefix
// query returns every version and resolves through the sorted name table
// instead of scanning the domain. All versions of a uuid live in one domain
// shard (per epoch) and the prefix reaches past the route key, so the view's
// read planner sends the query to the uuid's home shard(s) alone — one
// request, not a scatter. The query engine passes the view it snapshotted at
// Run start so one traversal cannot straddle a reshard cutover, and a drain
// buffer it reuses: r is drained into and left holding the items, and the
// bundles keep only their strings, never r's memory.
func ReadProvenanceView(v *sdb.DomainView, u uuid.UUID, r *sdb.Result) ([]prov.Bundle, error) {
	prefix := string(append(u.AppendTo(make([]byte, 0, uuid.StringLen+2)), "_%"...))
	if err := v.Drain(sdb.Query{Domain: DomainName, Where: sdb.Like(sdb.ItemNameKey, prefix)}, r); err != nil {
		return nil, err
	}
	if len(r.Items) == 0 {
		return nil, ErrNoProvenance
	}
	return BundlesFromItems(r.Items)
}

// CouplingReport is the outcome of one coupling check.
type CouplingReport struct {
	Path        string
	Linked      prov.Ref // the (uuid, version) the data object points at
	HaveVersion bool     // that exact version exists in the provenance store
	MaxProvVer  int      // newest version present in the provenance store
	Coupled     bool
}

// CheckCoupling verifies the data-coupling property for one object: the
// version named in the primary object's metadata must exist in the
// provenance backend, and the provenance must not describe a newer version
// whose data never became persistent (the "new provenance, old data" hazard
// of §3). This is the detection mechanism available to every protocol even
// when the property itself is not guaranteed.
func CheckCoupling(dep *Deployment, backend Backend, path string) (CouplingReport, error) {
	rep := CouplingReport{Path: path}
	meta, err := dep.Store.Head(DataKey(path))
	if err != nil {
		return rep, err
	}
	ref, err := linkedRef(meta)
	if err != nil {
		return rep, err
	}
	rep.Linked = ref
	bundles, err := ReadProvenance(dep, backend, ref.UUID)
	if err != nil && !errors.Is(err, ErrNoProvenance) {
		return rep, err
	}
	for _, b := range bundles {
		if b.Ref == ref {
			rep.HaveVersion = true
		}
		if b.Ref.UUID == ref.UUID && b.Ref.Version > rep.MaxProvVer {
			rep.MaxProvVer = b.Ref.Version
		}
	}
	rep.Coupled = rep.HaveVersion && rep.MaxProvVer <= ref.Version
	return rep, nil
}

// VerifiedFetch is the provenance-aware read of [28]: it fetches the object
// and its provenance, detects coupling violations, and retries (letting the
// eventually consistent services settle) up to retries times before giving
// up with ErrNotCoupled.
func VerifiedFetch(dep *Deployment, backend Backend, path string, retries int) (CouplingReport, error) {
	retries = max(retries, 1)
	var rep CouplingReport
	var err error
	for i := 0; i < retries; i++ {
		rep, err = CheckCoupling(dep, backend, path)
		if err == nil && rep.Coupled {
			return rep, nil
		}
		// Wait out a staleness window before retrying.
		dep.Env.Clock().Sleep(dep.Env.Config().StalenessMean)
	}
	if err != nil {
		return rep, err
	}
	return rep, fmt.Errorf("%w: %s links %s", ErrNotCoupled, path, rep.Linked)
}

// OrderingReport is the outcome of a causal-ordering walk.
type OrderingReport struct {
	Visited  int
	Dangling []prov.Ref // references whose bundles are missing
}

// CheckCausalOrdering walks the recorded provenance graph from root and
// verifies that every referenced ancestor's provenance is present — the
// multi-object causal ordering property. Missing ancestors are the
// "dangling pointers in the DAG" of §3.
func CheckCausalOrdering(dep *Deployment, backend Backend, root prov.Ref) (OrderingReport, error) {
	var rep OrderingReport
	found, err := walkAncestry(dep, backend, []prov.Ref{root}, func(r prov.Ref) error {
		rep.Dangling = append(rep.Dangling, r)
		return nil
	})
	rep.Visited = len(found)
	return rep, err
}

// walkAncestry visits the ancestor closure of roots depth first, parents in
// ref order and each before its child (the collector's canonical
// ancestors-first order, which it returns), reading each uuid's provenance
// once. A reference whose bundle is not stored goes to missing instead,
// whose error stops the walk.
func walkAncestry(dep *Deployment, backend Backend, roots []prov.Ref, missing func(prov.Ref) error) ([]prov.Bundle, error) {
	have := make(map[prov.Ref]prov.Bundle) // bundles fetched so far
	fetched := make(map[uuid.UUID]bool)
	seen := make(map[prov.Ref]bool)
	var order []prov.Bundle
	var visit func(prov.Ref) error
	visit = func(r prov.Ref) error {
		seen[r] = true
		if !fetched[r.UUID] {
			fetched[r.UUID] = true
			bundles, err := ReadProvenance(dep, backend, r.UUID)
			if err != nil && !errors.Is(err, ErrNoProvenance) {
				return err
			}
			for _, b := range bundles {
				have[b.Ref] = b
			}
		}
		b, ok := have[r]
		if !ok {
			return missing(r)
		}
		parents := b.Ancestors()
		slices.SortFunc(parents, prov.Ref.Compare)
		for _, p := range parents {
			if !seen[p] {
				if err := visit(p); err != nil {
					return err
				}
			}
		}
		order = append(order, b)
		return nil
	}
	for _, r := range roots {
		if !seen[r] {
			if err := visit(r); err != nil {
				return nil, err
			}
		}
	}
	return order, nil
}

// CheckPersistence verifies data-independent persistence: after the primary
// object is deleted, the object's provenance must still be readable.
func CheckPersistence(dep *Deployment, backend Backend, p Protocol, path string, ref prov.Ref) (bool, error) {
	if err := p.Delete(path); err != nil {
		return false, err
	}
	dep.Settle()
	bundles, err := ReadProvenance(dep, backend, ref.UUID)
	if err != nil && !errors.Is(err, ErrNoProvenance) {
		return false, err
	}
	return slices.ContainsFunc(bundles, func(b prov.Bundle) bool { return b.Ref == ref }), nil
}

// FindByAttr locates node refs whose provenance carries attr = value. On
// the database backend this is one indexed SELECT; on the store backend it
// must list and fetch every provenance object — the asymmetry behind
// Table 1's "efficient query" row and Table 5's Q3/Q4 gap.
func FindByAttr(dep *Deployment, backend Backend, attr, value string) ([]prov.Ref, error) {
	switch backend {
	case BackendSDB:
		q := sdb.Query{Domain: DomainName, ItemOnly: true, Where: sdb.Eq(attr, value)}
		items, _, _, err := dep.DB.SelectAllQuery(q)
		if err != nil {
			return nil, err
		}
		refs := make([]prov.Ref, 0, len(items))
		for _, it := range items {
			r, err := prov.ParseRef(it.Name)
			if err != nil {
				return nil, err
			}
			refs = append(refs, r)
		}
		return refs, nil
	case BackendS3:
		bundles, err := ProvObjects(dep)
		var refs []prov.Ref
		for _, b := range bundles {
			if slices.ContainsFunc(b.Records, func(r prov.Record) bool { return !r.IsXref() && r.Attr == attr && r.Value == value }) {
				refs = append(refs, b.Ref)
			}
		}
		return refs, err
	}
	return nil, fmt.Errorf("core: backend records no provenance")
}

// ProvObjects reads every bundle the store backend holds: a LIST of the
// provenance prefix, then a GET of each object listed (one a LIST names but
// a GET cannot see yet is skipped).
func ProvObjects(dep *Deployment) ([]prov.Bundle, error) {
	keys, _, err := dep.Store.ListAll(ProvPrefix)
	if err != nil {
		return nil, err
	}
	var all []prov.Bundle
	for _, k := range keys {
		o, err := dep.Store.Get(k)
		if err != nil {
			continue
		}
		bundles, err := prov.DecodeBundles(o.Data)
		if err != nil {
			return nil, err
		}
		all = append(all, bundles...)
	}
	return all, nil
}
