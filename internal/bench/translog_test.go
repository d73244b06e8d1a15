package bench

import "testing"

// translogConfig is the pinned tamper-detection configuration. It carries
// the full trust scenario: a 5% ambiguous fault plan and a live 1→4 reshard
// between the two commit phases, with the first-phase head kept as the
// witnessed checkpoint.
func translogConfig() TamperConfig {
	return TamperConfig{
		Seed:          41,
		Txns:          18,
		BundlesPerTxn: 12,
		Workers:       4,
		ClientConns:   32,
		Scale:         800,
		FromK:         1,
		ToK:           4,
		FaultProb:     0.05,
		ApplyProb:     0.5,
	}
}

// TestTamperDetection is the headline acceptance gate: with the sequencer
// attached, every committed transaction's inclusion proof verifies and every
// consecutive pair of signed heads proves consistent — through a live 1→4
// reshard, under the 5% fault plan — and a cold re-open rebuilds the
// identical signed head. Zero false positives.
func TestTamperDetection(t *testing.T) {
	cfg := translogConfig()
	run, err := TamperDetection(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if run.ItemCount != run.Events || run.Misplaced != 0 || run.Duplicates != 0 {
		t.Fatalf("fabric mangled: items=%d/%d misplaced=%d duplicates=%d",
			run.ItemCount, run.Events, run.Misplaced, run.Duplicates)
	}
	if run.TreeSize != cfg.Txns {
		t.Fatalf("tree size = %d, want one leaf per transaction (%d)", run.TreeSize, cfg.Txns)
	}
	if run.InclusionVerified != cfg.Txns {
		t.Fatalf("inclusion proofs verified = %d, want %d", run.InclusionVerified, cfg.Txns)
	}
	if run.ConsistencyChecked == 0 || run.HeadsVerified == 0 {
		t.Fatalf("no head history checked: heads=%d consistency=%d", run.HeadsVerified, run.ConsistencyChecked)
	}
	if !run.AuditClean {
		t.Fatalf("false positives: audit not clean (%d proof failures, %d divergences)",
			run.ProofFailures, run.Divergences)
	}
	if !run.ReopenedOK {
		t.Fatal("cold re-open did not rebuild the identical signed head")
	}
	if run.Faults == 0 {
		t.Fatal("fault plan never fired; the gate is not exercising ambiguity")
	}
}

// TestTamperNegativeControl rewrites one committed bundle directly on its
// home shard after the final checkpoint: the audit must flag exactly that
// item as tampered, and nothing else.
func TestTamperNegativeControl(t *testing.T) {
	cfg := translogConfig()
	cfg.Tamper = true
	run, err := TamperDetection(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !run.TamperFlagged {
		t.Fatal("rewritten bundle not flagged as tampered")
	}
	if run.AuditClean {
		t.Fatal("audit reported clean despite the rewrite")
	}
	if run.Divergences != 1 {
		t.Fatalf("divergences = %d, want exactly the rewritten item", run.Divergences)
	}
	if run.ProofFailures != 0 {
		t.Fatalf("proof failures = %d; a fabric rewrite must not break the log's own proofs", run.ProofFailures)
	}
	if run.InclusionVerified != cfg.Txns {
		t.Fatalf("inclusion proofs verified = %d, want %d", run.InclusionVerified, cfg.Txns)
	}
}
