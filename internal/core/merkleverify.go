package core

import (
	"encoding/hex"
	"fmt"
	"slices"

	"passcloud/internal/merkle"
	"passcloud/internal/prov"
)

// Reader-side Merkle verification (§4.3.1): "A reading client that wants to
// check multi-object causal ordering must use Merkle hash trees or some
// similar scheme to verify the property."
//
// The client computes the Merkle root of the provenance closure it is about
// to commit (ancestors first, exactly the bundle order the collector
// yields) and records it in the primary object's metadata. A reader
// re-fetches the closure from the provenance backend, recomputes the root
// and compares: a missing, stale or tampered ancestor changes a leaf and
// therefore the root, so ordering violations are detected without trusting
// either service.

// MetaMerkle is the metadata key carrying the closure root.
const MetaMerkle = "prov-merkle"

// ClosureRoot summarizes a commit's provenance closure.
func ClosureRoot(bundles []prov.Bundle) merkle.Digest {
	return merkle.RootOfBundles(bundles)
}

// MerkleReport is the outcome of a reader-side ancestry verification.
type MerkleReport struct {
	Path     string
	Expected merkle.Digest // root recorded by the writer
	Actual   merkle.Digest // root recomputed from the fetched closure
	Verified bool
	Leaves   int
}

// VerifyAncestry fetches the object's recorded closure (the object's
// versions up to the linked one plus their ancestor closure, in the
// canonical ancestors-first order) and checks it against the Merkle root in
// the object's metadata.
func VerifyAncestry(dep *Deployment, backend Backend, path string) (MerkleReport, error) {
	rep := MerkleReport{Path: path}
	meta, err := dep.Store.Head(DataKey(path))
	if err != nil {
		return rep, err
	}
	if meta[MetaMerkle] == "" {
		return rep, fmt.Errorf("core: %s has no ancestry digest", path)
	}
	raw, err := hex.DecodeString(meta[MetaMerkle])
	if err != nil || len(raw) != len(rep.Expected) {
		return rep, fmt.Errorf("core: bad ancestry digest on %s: %v", path, err)
	}
	copy(rep.Expected[:], raw)
	ref, err := linkedRef(meta)
	if err != nil {
		return rep, err
	}
	closure, err := fetchClosure(dep, backend, ref)
	if err != nil {
		return rep, err
	}
	rep.Leaves = len(closure)
	rep.Actual = merkle.RootOfBundles(closure)
	rep.Verified = rep.Actual == rep.Expected
	if !rep.Verified && dep.Env != nil {
		// A mismatch used to be visible only to this caller; meter it so
		// fleet-wide dashboards (and provctl) can report verification
		// failures alongside the transparency-log audit stats.
		dep.Env.Meter().CountMerkleMismatch()
	}
	return rep, nil
}

// fetchClosure rebuilds the commit-time closure of ref from the recorded
// provenance: every version of ref's object up to ref.Version plus the
// transitive ancestors, ordered exactly as the collector orders bundles
// (depth-first, parents sorted by ref string, ancestors first).
func fetchClosure(dep *Deployment, backend Backend, ref prov.Ref) ([]prov.Bundle, error) {
	cache := make(map[prov.Ref]prov.Bundle)
	fetched := make(map[string]bool)
	load := func(r prov.Ref) error {
		key := r.UUID.String()
		if fetched[key] {
			return nil
		}
		fetched[key] = true
		bundles, err := ReadProvenance(dep, backend, r.UUID)
		if err != nil {
			return err
		}
		for _, b := range bundles {
			cache[b.Ref] = b
		}
		return nil
	}

	var order []prov.Bundle
	state := make(map[prov.Ref]int)
	var visit func(prov.Ref) error
	visit = func(r prov.Ref) error {
		state[r] = 1
		if err := load(r); err != nil {
			return err
		}
		b, ok := cache[r]
		if !ok {
			return fmt.Errorf("core: closure of %s dangles at %s", ref, r)
		}
		parents := b.Ancestors()
		slices.SortFunc(parents, prov.Ref.Compare)
		for _, p := range parents {
			if state[p] == 0 {
				if err := visit(p); err != nil {
					return err
				}
			}
		}
		state[r] = 2
		order = append(order, b)
		return nil
	}
	// Roots: every version of the object up to the linked version, oldest
	// first — mirroring the collector's PendingFor roots on first commit.
	for v := 1; v <= ref.Version; v++ {
		r := prov.Ref{UUID: ref.UUID, Version: v}
		if state[r] == 0 {
			if err := visit(r); err != nil {
				return nil, err
			}
		}
	}
	return order, nil
}
