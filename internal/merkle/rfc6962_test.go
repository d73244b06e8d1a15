package merkle

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"passcloud/internal/prov"
)

// testLeaves builds n deterministic leaf hashes.
func testLeaves(n int) []Digest {
	out := make([]Digest, n)
	for i := range out {
		out[i] = HashLeafBytes([]byte(fmt.Sprintf("leaf-%d", i)))
	}
	return out
}

func TestLogRootEmptyTree(t *testing.T) {
	got := LogRoot(nil)
	want := sha256.Sum256(nil)
	if got != Digest(want) {
		t.Fatalf("empty tree root = %s, want SHA-256 of empty string %s",
			got, hex.EncodeToString(want[:]))
	}
}

func TestLogRootSingleLeaf(t *testing.T) {
	l := testLeaves(1)
	if LogRoot(l) != l[0] {
		t.Fatal("single-leaf tree root must be the leaf hash itself")
	}
	if p := LogInclusion(l, 0); len(p) != 0 {
		t.Fatalf("single-leaf inclusion path has %d nodes, want 0", len(p))
	}
	if !VerifyLogInclusion(l[0], 0, 1, nil, l[0]) {
		t.Fatal("single-leaf inclusion proof does not verify")
	}
}

// TestLogRootKnownAnswers pins the RFC 6962 shape against hand-computed
// trees: 2 leaves hash directly, 3 leaves split 2|1, 5 leaves split 4|1 —
// the largest-power-of-two split, NOT the odd-promotion shape of Root.
func TestLogRootKnownAnswers(t *testing.T) {
	l := testLeaves(5)
	n2 := hashNode(l[0], l[1])
	if got := LogRoot(l[:2]); got != n2 {
		t.Fatalf("2-leaf root = %s, want H(l0,l1)", got)
	}
	n3 := hashNode(n2, l[2])
	if got := LogRoot(l[:3]); got != n3 {
		t.Fatalf("3-leaf root = %s, want H(H(l0,l1),l2)", got)
	}
	n4 := hashNode(n2, hashNode(l[2], l[3]))
	n5 := hashNode(n4, l[4])
	if got := LogRoot(l[:5]); got != n5 {
		t.Fatalf("5-leaf root = %s, want H(MTH(0:4),l4)", got)
	}
}

// TestLogRootCrossChecksClosureRoot pins that the recursive RFC 6962 split
// and the level-wise odd-promotion Root build the same left-balanced tree:
// two independent implementations agreeing on every size is the strongest
// guarantee that neither drifted, and that the "prov-merkle" digests
// already persisted in object metadata stay byte-identical.
func TestLogRootCrossChecksClosureRoot(t *testing.T) {
	leaves := testLeaves(130)
	for n := 0; n <= len(leaves); n++ {
		if Root(leaves[:n]) != LogRoot(leaves[:n]) {
			t.Fatalf("size %d: odd-promotion Root and RFC 6962 LogRoot disagree", n)
		}
	}
}

// TestLogInclusionAllSizes proves every leaf of every tree size up to 130
// (crossing several power-of-two and odd-size boundaries), and rejects
// proofs replayed against the wrong index, leaf or size.
func TestLogInclusionAllSizes(t *testing.T) {
	leaves := testLeaves(130)
	for n := 1; n <= len(leaves); n++ {
		root := LogRoot(leaves[:n])
		for i := 0; i < n; i++ {
			p := LogInclusion(leaves[:n], i)
			if !VerifyLogInclusion(leaves[i], i, n, p, root) {
				t.Fatalf("inclusion proof (i=%d, n=%d) does not verify", i, n)
			}
			if VerifyLogInclusion(leaves[(i+1)%n], i, n, p, root) && n > 1 {
				t.Fatalf("inclusion proof (i=%d, n=%d) verified a different leaf", i, n)
			}
		}
	}
	// A tree-size claim that needs a longer path than the proof carries is
	// rejected, as are out-of-range indices.
	p := LogInclusion(leaves[:7], 3)
	if VerifyLogInclusion(leaves[3], 3, 14, p, LogRoot(leaves[:7])) {
		t.Fatal("size-7 proof verified against claimed size 14")
	}
	if VerifyLogInclusion(leaves[0], -1, 7, p, LogRoot(leaves[:7])) ||
		VerifyLogInclusion(leaves[0], 7, 7, p, LogRoot(leaves[:7])) {
		t.Fatal("out-of-range leaf index verified")
	}
}

// TestLogConsistencyAllSizes proves every (m, n) pair up to 66 leaves and
// rejects proofs between unrelated trees.
func TestLogConsistencyAllSizes(t *testing.T) {
	leaves := testLeaves(66)
	for n := 1; n <= len(leaves); n++ {
		newRoot := LogRoot(leaves[:n])
		for m := 1; m <= n; m++ {
			oldRoot := LogRoot(leaves[:m])
			p := LogConsistency(leaves[:n], m)
			if !VerifyLogConsistency(m, n, oldRoot, newRoot, p) {
				t.Fatalf("consistency proof (m=%d, n=%d) does not verify", m, n)
			}
		}
	}
	// A tree whose prefix was rewritten must not prove consistent.
	forked := append([]Digest(nil), leaves[:20]...)
	forked[3] = HashLeafBytes([]byte("rewritten"))
	p := LogConsistency(forked, 10)
	if VerifyLogConsistency(10, 20, LogRoot(leaves[:10]), LogRoot(forked), p) {
		t.Fatal("consistency verified across a rewritten prefix")
	}
	if VerifyLogConsistency(10, 10, LogRoot(leaves[:10]), LogRoot(forked[:10]), nil) {
		t.Fatal("equal-size consistency verified across different roots")
	}
}

// TestCompactRange pins that the persisted node snapshot recombines to the
// tree head at every size, and decomposes into one node per set bit.
func TestCompactRange(t *testing.T) {
	leaves := testLeaves(70)
	for n := 0; n <= len(leaves); n++ {
		cr := CompactRange(leaves[:n])
		bits := 0
		for v := n; v > 0; v >>= 1 {
			bits += v & 1
		}
		if len(cr) != bits {
			t.Fatalf("size %d: compact range has %d nodes, want %d (one per set bit)", n, len(cr), bits)
		}
		// Recombine right to left, exactly how the tree head folds up.
		root := LogRoot(leaves[:n])
		var acc Digest
		for i := len(cr) - 1; i >= 0; i-- {
			if i == len(cr)-1 {
				acc = cr[i]
			} else {
				acc = hashNode(cr[i], acc)
			}
		}
		if n == 0 {
			acc = LogRoot(nil)
		}
		if acc != root {
			t.Fatalf("size %d: compact range does not recombine to the root", n)
		}
	}
}

// TestHashNodeDoesNotAllocate: an audit hashes a node per proof step, so
// the interior hash must stay off the heap; its digest is the RFC's.
func TestHashNodeDoesNotAllocate(t *testing.T) {
	l, r := HashLeafBytes([]byte("left")), HashLeafBytes([]byte("right"))
	h := sha256.New()
	h.Write([]byte{0x01})
	h.Write(l[:])
	h.Write(r[:])
	if got := hashNode(l, r); string(got[:]) != string(h.Sum(nil)) {
		t.Fatalf("hashNode = %s, not H(0x01 || left || right)", got)
	}
	if got := testing.AllocsPerRun(100, func() { hashNode(l, r) }); got != 0 {
		t.Fatalf("hashNode = %v allocations, want 0", got)
	}
	// A leaf larger than HashLeafBytes' stack buffer hashes the same way.
	big := bytes.Repeat([]byte("leaf"), 1000)
	h.Reset()
	h.Write([]byte{0x00})
	h.Write(big)
	if got := HashLeafBytes(big); string(got[:]) != string(h.Sum(nil)) {
		t.Fatalf("HashLeafBytes(4000 bytes) = %s, not H(0x00 || data)", got)
	}
	b := someBundles(1)[0]
	if got, want := HashBundle(b), HashLeafBytes(prov.EncodeBundles([]prov.Bundle{b})); got != want {
		t.Fatalf("HashBundle = %s, not the leaf hash of the bundle's encoding %s", got, want)
	}
}

var sinkDigest Digest

func BenchmarkLogRoot(b *testing.B) {
	leaves := testLeaves(4096)
	b.ReportAllocs()
	for b.Loop() {
		sinkDigest = LogRoot(leaves)
	}
}
