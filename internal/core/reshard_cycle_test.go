package core

import (
	"context"
	"testing"
)

// TestReshardRepeatedCyclesBoundedRetention drives 20 consecutive reshards
// (10 grow/shrink cycles) over a live workload and pins the satellite-3
// retention invariants: directory range fragments stay under the fold bound,
// retired shard slots are released after every shrink, and the provenance
// digest and fabric audit survive the whole run. The grows are load-hinted
// automatically (Reshard stages the meter's per-shard op counts as the
// split-load hint), so this also exercises hottest-range splits end to end.
func TestReshardRepeatedCyclesBoundedRetention(t *testing.T) {
	const (
		txns, perTxn = 10, 4
		loK, hiK     = 2, 5
		cycles       = 10
	)
	// Mirrors sim's maxShrinkRanges(hiK) = 64 + 8*hiK; the directory re-folds
	// past it, so range counts must never exceed it at either width.
	const rangeBound = 64 + 8*hiK

	dep, _, uuids := reshardWorkload(t, loK, txns, perTxn)
	before := provDigest(t, dep, uuids)
	ctx := context.Background()

	check := func(step string, wantK int) {
		t.Helper()
		if dep.DB.Shards() != wantK || dep.WAL.Shards() != wantK {
			t.Fatalf("%s: live shards DB=%d WAL=%d, want %d", step, dep.DB.Shards(), dep.WAL.Shards(), wantK)
		}
		for _, e := range []struct {
			name   string
			ranges int
		}{
			{"db", len(dep.DB.Directory().Active().Ranges)},
			{"wal", len(dep.WAL.Directory().Active().Ranges)},
		} {
			if e.ranges > rangeBound {
				t.Fatalf("%s: %s directory holds %d ranges, bound %d", step, e.name, e.ranges, rangeBound)
			}
		}
	}

	for cycle := 0; cycle < cycles; cycle++ {
		if _, err := dep.Reshard(ctx, Topology{WALShards: hiK, DBShards: hiK}); err != nil {
			t.Fatalf("cycle %d grow: %v", cycle, err)
		}
		check("grow", hiK)
		if _, err := dep.Reshard(ctx, Topology{WALShards: loK, DBShards: loK}); err != nil {
			t.Fatalf("cycle %d shrink: %v", cycle, err)
		}
		check("shrink", loK)
	}

	dep.Settle()
	if got := provDigest(t, dep, uuids); got != before {
		t.Error("ReadProvenance digest changed across 20 reshards")
	}
	if got, want := dep.DB.ItemCount(), txns*perTxn; got != want {
		t.Fatalf("items = %d, want %d", got, want)
	}
	mis, dup, err := AuditFabric(dep)
	if err != nil || mis != 0 || dup != 0 {
		t.Fatalf("audit after cycles: misplaced=%d duplicates=%d err=%v", mis, dup, err)
	}
	c, ok, err := dep.ReadControl()
	if err != nil || !ok || c.State != ControlStable {
		t.Fatalf("control after cycles: %+v ok=%v err=%v", c, ok, err)
	}
}
