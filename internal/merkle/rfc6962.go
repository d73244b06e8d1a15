package merkle

// RFC 6962 tree shaping for the transparency log (internal/translog).
//
// The log's Merkle tree splits at the largest power of two strictly smaller
// than the leaf count — MTH(D[n]) = H(0x01 || MTH(D[0:k]) || MTH(D[k:n]))
// with k = 2^ceil(log2(n))/2 — which is what gives every prefix of an
// append-only log a stable subtree and makes consistency proofs between two
// tree sizes possible. Root above builds the same left-balanced tree by
// promoting the odd node level by level, so the two implementations agree
// on every root (the tests pin this as a cross-check); they are kept as
// separate code paths because the closure digests pinned in object metadata
// (core.ClosureRoot, the "prov-merkle" key) must stay byte-identical and
// Root must never grow log semantics. Only the log proves inclusion
// (LogInclusion, which follows RFC 6962 and never pads).
//
// All functions operate on already-hashed leaves (Digest values); hashing a
// leaf's content is the caller's business (HashBundle here, the log's
// canonical leaf encoding in translog).

import "crypto/sha256"

// hashNode is the RFC 6962 interior-node hash H(0x01 || left || right),
// computed over a stack array: proofs and roots hash thousands of nodes, so
// it must not allocate.
func hashNode(left, right Digest) Digest {
	var buf [1 + 2*sha256.Size]byte
	buf[0] = nodePrefix
	copy(buf[1:], left[:])
	copy(buf[1+sha256.Size:], right[:])
	return sha256.Sum256(buf[:])
}

// HashLeafBytes is the RFC 6962 leaf hash H(0x00 || data) over an opaque
// canonical leaf encoding. It streams data into the hash: no copy, no
// allocation.
func HashLeafBytes(data []byte) Digest {
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	h.Write(data)
	var d Digest
	h.Sum(d[:0])
	return d
}

// splitPoint returns the largest power of two strictly smaller than n
// (n >= 2).
func splitPoint(n int) int {
	k := 1
	for k*2 < n {
		k *= 2
	}
	return k
}

// LogRoot computes the RFC 6962 Merkle tree hash over the leaf hashes. The
// empty tree hashes to SHA-256 of the empty string, exactly as the RFC
// defines MTH({}).
func LogRoot(leaves []Digest) Digest {
	switch len(leaves) {
	case 0:
		return sha256.Sum256(nil)
	case 1:
		return leaves[0]
	}
	k := splitPoint(len(leaves))
	return hashNode(LogRoot(leaves[:k]), LogRoot(leaves[k:]))
}

// LogInclusion builds the RFC 6962 audit path PATH(i, D[n]) proving that
// leaves[i] is in the tree: the sibling subtree hashes from the leaf to the
// root, leaf-most first. A single-leaf tree has an empty path.
func LogInclusion(leaves []Digest, i int) []Digest {
	if i < 0 || i >= len(leaves) {
		return nil
	}
	if len(leaves) < 2 {
		return []Digest{}
	}
	k := splitPoint(len(leaves))
	if i < k {
		return append(LogInclusion(leaves[:k], i), LogRoot(leaves[k:]))
	}
	return append(LogInclusion(leaves[k:], i-k), LogRoot(leaves[:k]))
}

// VerifyLogInclusion checks an RFC 6962 audit path: that leaf sits at index
// i of a size-n tree with the given root. (RFC 9162 §2.1.3.2.)
func VerifyLogInclusion(leaf Digest, i, n int, path []Digest, root Digest) bool {
	if i < 0 || n <= 0 || i >= n {
		return false
	}
	fn, sn := i, n-1
	r := leaf
	for _, p := range path {
		if sn == 0 {
			return false
		}
		if fn%2 == 1 || fn == sn {
			r = hashNode(p, r)
			if fn%2 == 0 {
				for fn != 0 && fn%2 == 0 {
					fn >>= 1
					sn >>= 1
				}
			}
		} else {
			r = hashNode(r, p)
		}
		fn >>= 1
		sn >>= 1
	}
	return sn == 0 && r == root
}

// LogConsistency builds the RFC 6962 consistency proof PROOF(m, D[n])
// showing that the size-m tree over leaves[:m] is a prefix of the size-n
// tree over all of leaves (0 < m <= n == len(leaves)). Equal sizes prove
// trivially with an empty path.
func LogConsistency(leaves []Digest, m int) []Digest {
	n := len(leaves)
	if m <= 0 || m > n {
		return nil
	}
	if m == n {
		return []Digest{}
	}
	return subProof(leaves, m, true)
}

// subProof is SUBPROOF(m, D[n], b) from the RFC: b marks that the size-m
// subtree is still a prefix whose hash the verifier already knows.
func subProof(leaves []Digest, m int, complete bool) []Digest {
	n := len(leaves)
	if m == n {
		if complete {
			return []Digest{}
		}
		return []Digest{LogRoot(leaves)}
	}
	k := splitPoint(n)
	if m <= k {
		return append(subProof(leaves[:k], m, complete), LogRoot(leaves[k:]))
	}
	return append(subProof(leaves[k:], m-k, false), LogRoot(leaves[:k]))
}

// VerifyLogConsistency checks an RFC 6962 consistency proof between the
// size-m tree with root oldRoot and the size-n tree with root newRoot.
// (RFC 9162 §2.1.4.2.)
func VerifyLogConsistency(m, n int, oldRoot, newRoot Digest, proof []Digest) bool {
	if m <= 0 || n <= 0 || m > n {
		return false
	}
	if m == n {
		return len(proof) == 0 && oldRoot == newRoot
	}
	fn, sn := m-1, n-1
	for fn%2 == 1 {
		fn >>= 1
		sn >>= 1
	}
	var fr, sr Digest
	rest := proof
	if fn != 0 {
		if len(rest) == 0 {
			return false
		}
		fr, sr = rest[0], rest[0]
		rest = rest[1:]
	} else {
		fr, sr = oldRoot, oldRoot
	}
	for _, c := range rest {
		if sn == 0 {
			return false
		}
		if fn%2 == 1 || fn == sn {
			fr = hashNode(c, fr)
			sr = hashNode(c, sr)
			if fn%2 == 0 {
				for fn != 0 && fn%2 == 0 {
					fn >>= 1
					sn >>= 1
				}
			}
		} else {
			sr = hashNode(sr, c)
		}
		fn >>= 1
		sn >>= 1
	}
	return sn == 0 && fr == oldRoot && sr == newRoot
}

// CompactRange returns the roots of the maximal perfect subtrees covering
// leaves, left to right — the minimal node snapshot from which the tree
// head can be recomputed without the leaves. The log's checkpoint object
// persists these so a restarted sequencer can verify the entries it reloads
// against what the tree looked like when the checkpoint was cut.
func CompactRange(leaves []Digest) []Digest {
	var out []Digest
	n := len(leaves)
	off := 0
	for n > 0 {
		// Largest power of two <= n.
		k := 1
		for k*2 <= n {
			k *= 2
		}
		out = append(out, LogRoot(leaves[off:off+k]))
		off += k
		n -= k
	}
	return out
}
