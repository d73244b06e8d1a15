package core

import (
	"encoding/hex"
	"fmt"

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
	// The commit-time closure: every version of the object up to the linked
	// one, oldest first (the collector's PendingFor roots on first commit),
	// and their ancestors.
	roots := make([]prov.Ref, ref.Version)
	for v := range roots {
		roots[v] = prov.Ref{UUID: ref.UUID, Version: v + 1}
	}
	closure, err := walkAncestry(dep, backend, roots, func(r prov.Ref) error {
		return fmt.Errorf("core: closure of %s dangles at %s", ref, r)
	})
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
