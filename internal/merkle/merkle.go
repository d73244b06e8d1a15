// Package merkle implements the hash-tree verification §4.3.1 prescribes
// for reading clients: "A reading client that wants to check multi-object
// causal ordering must use Merkle hash trees or some similar scheme to
// verify the property."
//
// A writer summarizes an object's provenance closure as a Merkle tree whose
// leaves are the hashes of the individual bundles (ancestors first). The
// root digest travels with the object; a reader recomputes leaf hashes from
// the provenance it actually observes and verifies the root. A stale or
// missing ancestor changes a leaf and therefore the root, so ordering
// violations are detected without trusting the store.
package merkle

import (
	"crypto/sha256"
	"encoding/hex"

	"passcloud/internal/prov"
)

// Digest is a SHA-256 node hash.
type Digest [sha256.Size]byte

// String renders the digest in hex.
func (d Digest) String() string {
	var buf [2 * sha256.Size]byte
	hex.Encode(buf[:], d[:])
	return string(buf[:])
}

// leafPrefix and nodePrefix domain-separate leaf and interior hashes,
// preventing second-preimage splices between levels.
const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

// HashBundle hashes one provenance bundle as a leaf. A bundle whose
// encoding fits the stack buffer hashes without allocating.
func HashBundle(b prov.Bundle) Digest {
	var buf [1024]byte
	return sha256.Sum256(prov.AppendBundle(append(buf[:0], leafPrefix), b))
}

// Root computes the Merkle root over the leaves in order. An empty input
// hashes to the digest of the empty leaf set. Each level is hashed into the
// first half of one buffer, on the stack for up to 128 leaves.
func Root(leaves []Digest) Digest {
	switch len(leaves) {
	case 0:
		return sha256.Sum256(nil)
	case 1:
		return leaves[0]
	}
	var buf [64]Digest
	level := buf[:0]
	if half := (len(leaves) + 1) / 2; half > len(buf) {
		level = make([]Digest, 0, half)
	}
	for len(leaves) > 1 {
		level = level[:0]
		for i := 0; i < len(leaves); i += 2 {
			if i+1 == len(leaves) {
				level = append(level, leaves[i]) // odd node promotes
				continue
			}
			level = append(level, hashNode(leaves[i], leaves[i+1]))
		}
		leaves = level
	}
	return leaves[0]
}

// RootOfBundles summarizes a provenance closure (ancestors first, as the
// collector emits it).
func RootOfBundles(bundles []prov.Bundle) Digest {
	leaves := make([]Digest, len(bundles))
	for i, b := range bundles {
		leaves[i] = HashBundle(b)
	}
	return Root(leaves)
}
