package translog

import (
	"encoding/json"
	"errors"
	"fmt"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/cloud/store"
	"passcloud/internal/core"
	"passcloud/internal/merkle"
)

// The auditor daemon: replays the log against the fabric and verifies every
// proof. It follows the AuditFabric discipline — consistent scans of every
// live domain shard, refusing to run inside a migration window (when items
// legitimately live on two homes and a diff would lie).

// Divergence kinds the auditor reports.
const (
	// DivMissing: the log promises an item the fabric no longer serves.
	DivMissing = "missing"
	// DivTampered: the fabric serves the item with different attributes
	// than the ones the commit was sequenced with.
	DivTampered = "tampered"
	// DivUnlogged: the fabric serves a provenance item no leaf accounts
	// for — a commit excised from the log, or one the sequencer never saw.
	DivUnlogged = "unlogged"
)

// Divergence is one audit finding.
type Divergence struct {
	Kind string `json:"kind"`
	Item string `json:"item"`
	Txn  string `json:"txn,omitempty"`
}

// AuditOptions tunes one audit pass.
type AuditOptions struct {
	// Witness, when set, is a previously witnessed signed head the current
	// log must prove consistency against — the gossip check that makes
	// history rewriting evident even when the forged log re-signs
	// everything.
	Witness *SignedHead
}

// AuditReport is the outcome of one auditor pass.
type AuditReport struct {
	TreeSize           int          `json:"tree_size"`
	HeadsVerified      int          `json:"heads_verified"`
	InclusionVerified  int          `json:"inclusion_verified"`
	ConsistencyChecked int          `json:"consistency_checked"`
	ItemsScanned       int          `json:"items_scanned"`
	ProofFailures      []string     `json:"proof_failures,omitempty"`
	Divergences        []Divergence `json:"divergences,omitempty"`
}

// Clean reports whether the pass found nothing wrong.
func (r AuditReport) Clean() bool {
	return len(r.ProofFailures) == 0 && len(r.Divergences) == 0
}

// String renders the report in one line for provctl.
func (r AuditReport) String() string {
	verdict := "CLEAN"
	if !r.Clean() {
		verdict = fmt.Sprintf("DIVERGED (%d proof failures, %d divergences)",
			len(r.ProofFailures), len(r.Divergences))
	}
	return fmt.Sprintf("audit %s: tree=%d heads=%d inclusion=%d consistency=%d scanned=%d",
		verdict, r.TreeSize, r.HeadsVerified, r.InclusionVerified, r.ConsistencyChecked, r.ItemsScanned)
}

// Audit replays the log against the deployment's fabric and verifies every
// proof the log can issue. Run it against a settled, checkpointed log — the
// durable state is what a third party sees, and pending leaves would show
// their fabric items as unlogged.
func Audit(dep *core.Deployment, l *Log, opts AuditOptions) (AuditReport, error) {
	var r AuditReport
	if dep.DB.Directory().Migrating() {
		return r, fmt.Errorf("translog: audit during migration")
	}

	l.mu.Lock()
	leaves := append([]Leaf(nil), l.leaves...)
	hashes := append([]merkle.Digest(nil), l.hashes...)
	l.mu.Unlock()
	r.TreeSize = len(leaves)
	pub := l.Public()

	// 1. Every persisted head: signature valid, root matching the tree the
	// log actually holds at that size, and consistency with its successor.
	heads, err := loadHeads(l)
	if err != nil {
		return r, err
	}
	for _, h := range heads {
		if !h.Verify(pub) {
			r.ProofFailures = append(r.ProofFailures, fmt.Sprintf("head size=%d: bad signature", h.TreeSize))
			continue
		}
		if h.TreeSize > len(hashes) {
			r.ProofFailures = append(r.ProofFailures, fmt.Sprintf("head size=%d: log only holds %d leaves", h.TreeSize, len(hashes)))
			continue
		}
		if got := merkle.LogRoot(hashes[:h.TreeSize]).String(); got != h.Root {
			r.ProofFailures = append(r.ProofFailures, fmt.Sprintf("head size=%d: root mismatch", h.TreeSize))
			continue
		}
		r.HeadsVerified++
	}
	for i := 1; i < len(heads); i++ {
		old, cur := heads[i-1], heads[i]
		if old.TreeSize > cur.TreeSize || cur.TreeSize > len(hashes) || old.TreeSize == 0 {
			continue // already reported above, or trivial empty prefix
		}
		if !verifyConsistencyBetween(hashes, old, cur) {
			r.ProofFailures = append(r.ProofFailures, fmt.Sprintf("heads %d..%d: consistency proof failed", old.TreeSize, cur.TreeSize))
			continue
		}
		r.ConsistencyChecked++
	}
	// The gossip check: the current tree must extend the witnessed head.
	if w := opts.Witness; w != nil && w.TreeSize > 0 {
		cur := SignedHead{TreeSize: len(hashes), Root: merkle.LogRoot(hashes).String()}
		if w.TreeSize > len(hashes) || !verifyConsistencyBetween(hashes, *w, cur) {
			r.ProofFailures = append(r.ProofFailures, fmt.Sprintf("witnessed head size=%d: log is not an append-only extension", w.TreeSize))
		} else {
			r.ConsistencyChecked++
		}
	}

	// 2. Every leaf against the current tree head. The tree is built over
	// hashes, so a leaf's inclusion proof verifies against its root exactly
	// when the leaf re-hashes to hashes[i]: checking that directly is the
	// same verdict in O(n) instead of one O(n) proof per leaf.
	for i, lf := range leaves {
		if lf.Hash() != hashes[i] {
			r.ProofFailures = append(r.ProofFailures, fmt.Sprintf("leaf %d (%s): inclusion proof failed", i, lf.Txn))
			continue
		}
		r.InclusionVerified++
	}

	// 3. Replay against the fabric: consistent full scans of every live
	// shard through one coherent routing view, diffed against the leaves.
	fabric := make(map[string]string)
	items, _, _, err := dep.DB.SelectAllQuery(sdb.Query{Domain: dep.DB.Base(), Consistent: true})
	if err != nil {
		return r, err
	}
	for _, it := range items {
		fabric[it.Name] = ItemDigest(it.Attrs)
	}
	r.ItemsScanned = len(fabric)

	logged := make(map[string]bool, len(fabric))
	for _, lf := range leaves {
		for _, li := range lf.Items {
			logged[li.Name] = true
			got, ok := fabric[li.Name]
			switch {
			case !ok:
				r.Divergences = append(r.Divergences, Divergence{Kind: DivMissing, Item: li.Name, Txn: lf.Txn})
			case got != li.Digest:
				r.Divergences = append(r.Divergences, Divergence{Kind: DivTampered, Item: li.Name, Txn: lf.Txn})
			}
		}
	}
	for name := range fabric {
		if !logged[name] {
			r.Divergences = append(r.Divergences, Divergence{Kind: DivUnlogged, Item: name})
		}
	}
	return r, nil
}

// loadHeads fetches the persisted signed heads, oldest first.
func loadHeads(l *Log) ([]SignedHead, error) {
	keys, _, err := l.st.ListAll(l.prefix + headsDir)
	if err != nil {
		return nil, err
	}
	heads := make([]SignedHead, 0, len(keys))
	for _, k := range keys {
		o, err := l.st.Get(k)
		if errors.Is(err, store.ErrNoSuchKey) {
			continue // pruned between list and get
		}
		if err != nil {
			return nil, fmt.Errorf("translog: reading %s: %w", k, err)
		}
		var h SignedHead
		if err := json.Unmarshal(o.Data, &h); err != nil {
			return nil, fmt.Errorf("translog: decoding %s: %w", k, err)
		}
		if k != l.headKey(h.TreeSize) { // a head moved to another's key
			return nil, fmt.Errorf("translog: %s holds the head of size %d", k, h.TreeSize)
		}
		heads = append(heads, h)
	}
	return heads, nil
}

// verifyConsistencyBetween builds and verifies the consistency proof from
// old to cur against the full leaf-hash sequence.
func verifyConsistencyBetween(hashes []merkle.Digest, old, cur SignedHead) bool {
	oldRoot, err := old.RootDigest()
	if err != nil {
		return false
	}
	curRoot, err := cur.RootDigest()
	if err != nil {
		return false
	}
	proof := merkle.LogConsistency(hashes[:cur.TreeSize], old.TreeSize)
	return merkle.VerifyLogConsistency(old.TreeSize, cur.TreeSize, oldRoot, curRoot, proof)
}
