package bench

import (
	"testing"
)

// TestReshardUnderLoadIdentical is the always-on correctness check: a small
// continuous-ingest run that grows K=1→4 mid-flight must lose and duplicate
// nothing and read back byte-identically to a static K=4 deployment of the
// same transaction set.
func TestReshardUnderLoadIdentical(t *testing.T) {
	live, err := ReshardUnderLoad(11, 24, 16, 4, 32, 800, 1, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	static4, err := ReshardUnderLoad(11, 24, 16, 4, 32, 800, 4, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if live.ItemCount != live.Events {
		t.Fatalf("items = %d, want exactly %d (lost or duplicated)", live.ItemCount, live.Events)
	}
	if live.Misplaced != 0 || live.Duplicates != 0 {
		t.Fatalf("audit: misplaced=%d duplicates=%d", live.Misplaced, live.Duplicates)
	}
	if live.CopiedItems == 0 || live.Epoch == 0 {
		t.Fatalf("reshard did not run: %+v", live)
	}
	if live.ProvDigest != static4.ProvDigest || live.ProvDigest == "" {
		t.Fatalf("resharded digest %s differs from static K=4 %s", live.ProvDigest, static4.ProvDigest)
	}
}

// TestReshardSpeedup is the acceptance gate for live resharding at scale:
// on the ≥50k-event workload with ingest running through the whole
// migration, the K=1→4 reshard must (a) lose/duplicate zero provenance
// items, (b) read back byte-identically to a static K=4 deployment, and
// (c) make the post-reshard ingest phase ≥2x faster in simulated time than
// the control run that stayed at K=1, and (d) keep what the migration itself
// costs bounded: the phase that races the reshard at most 9x as long as the
// control's, the whole run at most 2x its billed requests (measured 6.4x and
// 1.57x with the pipelined copy and the batched GC; 25.7x and 6.1x before).
func TestReshardSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("large-N benchmark")
	}
	const (
		txns          = 790
		bundlesPerTxn = 64 // 50,560 events
		workers       = 16
	)
	live, err := ReshardUnderLoad(7, txns, bundlesPerTxn, workers, 128, 0, 1, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	stay1, err := ReshardUnderLoad(7, txns, bundlesPerTxn, workers, 128, 0, 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	static4, err := ReshardUnderLoad(7, txns, bundlesPerTxn, workers, 128, 0, 4, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("reshard 1->4: pre=%.1fs during=%.1fs post=%.1fs copied=%d/%d req gc=%d/%d req wal-moved=%d ops=%d $%.4f",
		live.PreSimSecs, live.DuringSimSecs, live.PostSimSecs,
		live.CopiedItems, live.CopyBatches, live.GCItems, live.GCBatches, live.WALMigrated, live.TotalOps, live.CostUSD)
	t.Logf("stay K=1:    pre=%.1fs during=%.1fs post=%.1fs ops=%d $%.4f (post speedup %.1fx)",
		stay1.PreSimSecs, stay1.DuringSimSecs, stay1.PostSimSecs, stay1.TotalOps, stay1.CostUSD,
		stay1.PostSimSecs/live.PostSimSecs)

	if live.Events < 50_000 {
		t.Fatalf("only %d events, want >= 50000", live.Events)
	}
	if live.ItemCount != live.Events {
		t.Fatalf("items = %d, want exactly %d (lost or duplicated provenance)", live.ItemCount, live.Events)
	}
	if live.Misplaced != 0 || live.Duplicates != 0 {
		t.Fatalf("audit: misplaced=%d duplicates=%d", live.Misplaced, live.Duplicates)
	}
	if live.ProvDigest == "" || live.ProvDigest != static4.ProvDigest || live.ProvDigest != stay1.ProvDigest {
		t.Fatalf("provenance diverged: live=%s static4=%s stay1=%s", live.ProvDigest, static4.ProvDigest, stay1.ProvDigest)
	}
	if stay1.PostSimSecs < 2*live.PostSimSecs {
		t.Errorf("post-reshard phase: K=1 %.1fs vs resharded %.1fs — %.2fx, want >= 2x",
			stay1.PostSimSecs, live.PostSimSecs, stay1.PostSimSecs/live.PostSimSecs)
	}
	if slowdown := live.DuringSimSecs / stay1.DuringSimSecs; slowdown > 9 {
		t.Errorf("during-reshard phase: %.1fs vs %.1fs at K=1 — %.1fx, want <= 9x",
			live.DuringSimSecs, stay1.DuringSimSecs, slowdown)
	}
	if ratio := float64(live.TotalOps) / float64(stay1.TotalOps); ratio > 2 {
		t.Errorf("billed requests: %d resharded vs %d at K=1 — %.2fx, want <= 2x",
			live.TotalOps, stay1.TotalOps, ratio)
	}
}
