package bench

import "testing"

// chaosPair returns the small equivalence configuration and its fault-free
// twin: identical workload and topology — only the fault plan differs.
func chaosPair() (faulted, clean ChaosConfig) {
	base := ChaosConfig{
		Seed:          21,
		Txns:          18,
		BundlesPerTxn: 12,
		Workers:       4,
		ClientConns:   32,
		Scale:         800,
		FromK:         2,
		ToK:           4,
		Resilient:     true,
		Queries:       25,
	}
	faulted, clean = base, base
	faulted.FaultProb = 0.05
	faulted.ApplyProb = 0.5
	faulted.DupProb = 0.02
	return faulted, clean
}

// TestChaosEquivalence is the always-on tentpole gate: under a 5% uniform
// fault plan (half the mutating faults ambiguous) with duplicate queue
// delivery, the commit+reshard+query workload must lose and duplicate
// nothing, answer every hedged fan-out with the complete item set, and read
// back byte-identical to its fault-free twin.
func TestChaosEquivalence(t *testing.T) {
	faultedCfg, cleanCfg := chaosPair()
	faulted, err := ChaosCommitQueryReshard(faultedCfg)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := ChaosCommitQueryReshard(cleanCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("faulted: faults=%d retries=%d hedges=%d", faulted.Faults, faulted.Retries, faulted.Hedges)

	// The chaos machinery genuinely ran.
	if faulted.Faults == 0 {
		t.Fatal("fault plan armed but nothing injected")
	}
	if faulted.Retries == 0 {
		t.Fatal("faults injected but the resilient layer retried nothing")
	}
	if clean.Faults != 0 {
		t.Fatalf("fault-free twin saw %d faults", clean.Faults)
	}

	// Zero lost, zero duplicated, byte-identical to the fault-free twin.
	if faulted.ItemCount != faulted.Events {
		t.Fatalf("items = %d, want exactly %d (lost or duplicated)", faulted.ItemCount, faulted.Events)
	}
	if faulted.Misplaced != 0 || faulted.Duplicates != 0 {
		t.Fatalf("audit: misplaced=%d duplicates=%d", faulted.Misplaced, faulted.Duplicates)
	}
	if faulted.ProvDigest == "" || faulted.ProvDigest != clean.ProvDigest {
		t.Fatalf("faulted digest %s differs from fault-free %s", faulted.ProvDigest, clean.ProvDigest)
	}
}

// TestChaosNegativeControl pins that the faults are real: the same workload
// with the resilience layer removed visibly fails — raw transient errors
// surface to the committing clients.
func TestChaosNegativeControl(t *testing.T) {
	cfg, _ := chaosPair()
	cfg.Resilient = false
	cfg.FaultProb = 0.15
	run, err := ChaosCommitQueryReshard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if run.Faults == 0 {
		t.Fatal("negative control saw no faults")
	}
	if run.CommitErrors == 0 {
		t.Fatalf("no commit failed with resilience disabled under %d faults — the fault plan is toothless", run.Faults)
	}
	t.Logf("negative control: %d/%d commits failed (first: %s)", run.CommitErrors, run.Txns, run.FirstError)
}
