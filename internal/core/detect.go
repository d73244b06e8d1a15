package core

import (
	"errors"
	"fmt"

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
		return ReadProvenanceView(v, u)
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
// Run start so one traversal cannot straddle a reshard cutover.
func ReadProvenanceView(v *sdb.DomainView, u uuid.UUID) ([]prov.Bundle, error) {
	q := sdb.Query{Domain: DomainName, Where: sdb.Like(sdb.ItemNameKey, u.String()+"_%")}
	items, _, _, err := v.SelectAllQuery(q)
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return nil, ErrNoProvenance
	}
	bundles := make([]prov.Bundle, 0, len(items))
	for _, it := range items {
		b, err := BundleFromItem(it)
		if err != nil {
			return nil, err
		}
		bundles = append(bundles, b)
	}
	return bundles, nil
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
	if retries < 1 {
		retries = 1
	}
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
	Root     prov.Ref
	Visited  int
	Dangling []prov.Ref // references whose bundles are missing
}

// Ordered reports whether the walk found no dangling ancestors.
func (r OrderingReport) Ordered() bool { return len(r.Dangling) == 0 }

// CheckCausalOrdering walks the recorded provenance graph from root and
// verifies that every referenced ancestor's provenance is present — the
// multi-object causal ordering property. Missing ancestors are the
// "dangling pointers in the DAG" of §3.
func CheckCausalOrdering(dep *Deployment, backend Backend, root prov.Ref) (OrderingReport, error) {
	rep := OrderingReport{Root: root}
	have := make(map[prov.Ref]prov.Bundle)  // bundles fetched so far
	fetched := make(map[uuid.UUID]bool)     // uuids already read
	missingUUID := make(map[uuid.UUID]bool) // uuids with no provenance
	fetch := func(u uuid.UUID) error {
		if fetched[u] || missingUUID[u] {
			return nil
		}
		bundles, err := ReadProvenance(dep, backend, u)
		if err != nil {
			if errors.Is(err, ErrNoProvenance) {
				missingUUID[u] = true
				return nil
			}
			return err
		}
		fetched[u] = true
		for _, b := range bundles {
			have[b.Ref] = b
		}
		return nil
	}
	if err := fetch(root.UUID); err != nil {
		return rep, err
	}
	seen := map[prov.Ref]bool{}
	stack := []prov.Ref{root}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		b, ok := have[cur]
		if !ok {
			if err := fetch(cur.UUID); err != nil {
				return rep, err
			}
			b, ok = have[cur]
			if !ok {
				rep.Dangling = append(rep.Dangling, cur)
				continue
			}
		}
		rep.Visited++
		stack = append(stack, b.Ancestors()...)
	}
	return rep, nil
}

// CheckPersistence verifies data-independent persistence: after the primary
// object is deleted, the object's provenance must still be readable.
func CheckPersistence(dep *Deployment, backend Backend, p Protocol, path string, ref prov.Ref) (bool, error) {
	if err := p.Delete(path); err != nil {
		return false, err
	}
	dep.Settle()
	bundles, err := ReadProvenance(dep, backend, ref.UUID)
	if errors.Is(err, ErrNoProvenance) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	for _, b := range bundles {
		if b.Ref == ref {
			return true, nil
		}
	}
	return false, nil
}
