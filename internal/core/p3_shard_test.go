package core

import (
	"fmt"
	"testing"
	"time"

	"passcloud/internal/sim"
)

// newShardedDep builds a deployment on a manual clock with a K×K fabric.
func newShardedDep(t *testing.T, consistency sim.Consistency, k int) *Deployment {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Consistency = consistency
	return NewShardedDeployment(sim.NewEnv(cfg), Topology{WALShards: k, DBShards: k})
}

// TestTopologyClamping pins the constructor validation: non-positive and
// oversized shard counts clamp into [1, MaxShards], and Options worker
// counts clamp into [1, maxCommitWorkers].
func TestTopologyClamping(t *testing.T) {
	cfg := sim.DefaultConfig()
	dep := NewShardedDeployment(sim.NewEnv(cfg), Topology{WALShards: -3, DBShards: 0})
	if dep.Topo.WALShards != 1 || dep.Topo.DBShards != 1 {
		t.Fatalf("negative shards not clamped: %+v", dep.Topo)
	}
	if dep.WAL.Shards() != 1 || dep.DB.Shards() != 1 {
		t.Fatalf("sets not sized from clamped topology: %d/%d", dep.WAL.Shards(), dep.DB.Shards())
	}
	dep = NewShardedDeployment(sim.NewEnv(cfg), Topology{WALShards: 10_000, DBShards: 10_000})
	if dep.Topo.WALShards != MaxShards || dep.Topo.DBShards != MaxShards {
		t.Fatalf("oversized shards not clamped: %+v", dep.Topo)
	}
	if o := (Options{CommitWorkers: -4}).withDefaults(40); o.CommitWorkers != 1 {
		t.Fatalf("negative workers not clamped: %d", o.CommitWorkers)
	}
	if o := (Options{CommitWorkers: 1 << 20}).withDefaults(40); o.CommitWorkers != maxCommitWorkers {
		t.Fatalf("oversized workers not clamped: %d", o.CommitWorkers)
	}
	if o := (Options{DataConns: -1, ProvConns: -1}).withDefaults(40); o.DataConns != 16 || o.ProvConns != 40 {
		t.Fatalf("negative conns not clamped: %+v", o)
	}
}

// TestWALSubscriptionCoversAllShards pins the daemon discovery story: for
// any pool size and shard count, every WAL shard is polled by at least one
// worker, and the assignment is deterministic.
func TestWALSubscriptionCoversAllShards(t *testing.T) {
	for _, k := range []int{1, 2, 4, 7} {
		for _, workers := range []int{1, 2, 4, 5, 9} {
			dep := newShardedDep(t, sim.Strict, k)
			// The fabric clamps, so read back the effective shard count.
			kk := dep.WAL.Shards()
			p := NewP3(dep, Options{CommitWorkers: workers})
			covered := make(map[int]bool)
			for w := 0; w < workers; w++ {
				subsA := p.walSubscription(w, workers)
				subsB := p.walSubscription(w, workers)
				if fmt.Sprint(subsA) != fmt.Sprint(subsB) {
					t.Fatalf("k=%d w=%d/%d: nondeterministic subscription", k, w, workers)
				}
				for _, s := range subsA {
					if s < 0 || s >= kk {
						t.Fatalf("k=%d w=%d/%d: shard %d out of range", k, w, workers, s)
					}
					covered[s] = true
				}
			}
			if len(covered) != kk {
				t.Fatalf("k=%d workers=%d: only %d of %d shards covered", k, workers, len(covered), kk)
			}
		}
	}
}

// TestP3ShardedHalfAcknowledgedRedelivery re-runs the mid-cleanup death
// scenario on a 4-way fabric: a committed transaction's leftover receipts on
// its home WAL shard must be absorbed as acknowledgements, never re-run.
func TestP3ShardedHalfAcknowledgedRedelivery(t *testing.T) {
	dep := newShardedDep(t, sim.Eventual, 4)
	// Long enough that the settle loop's own polling (empty receives
	// advance the manual clock) cannot outrun it.
	dep.WAL.SetVisibility(30 * time.Minute)
	p := NewP3(dep, Options{CommitWorkers: 3, ChunkSize: 64}) // force several packets -> several receipts
	_, _, out, _, outB := onePipeline(t, 41)
	if err := p.Commit(out, outB); err != nil {
		t.Fatal(err)
	}
	dep.Env.InstallFaults(nil).CrashAt(CrashCleanupAfterReceipts, 1)
	if err := p.Settle(); err != nil {
		t.Fatal(err)
	}
	dep.Settle()
	if dep.WAL.Len() == 0 {
		t.Fatal("expected unacknowledged receipts after mid-cleanup death")
	}
	items := dep.DB.ItemCount()
	puts := dep.Env.Meter().Usage().OpsByKind["sdb.BatchPutAttributes"]
	dep.Env.Clock().Advance(time.Hour)
	if err := p.Settle(); err != nil {
		t.Fatal(err)
	}
	if n := dep.WAL.Len(); n != 0 {
		t.Fatalf("WAL holds %d messages after redelivery settle", n)
	}
	if got := dep.DB.ItemCount(); got != items {
		t.Fatalf("items changed on redelivery: %d -> %d", items, got)
	}
	if got := dep.Env.Meter().Usage().OpsByKind["sdb.BatchPutAttributes"]; got != puts {
		t.Fatalf("redelivery re-ran the commit: %d -> %d batch puts", puts, got)
	}
	if !redelivered(dep) {
		t.Fatal("no packet was delivered twice")
	}
}

// TestP3ShardedWALGC proves retention-based GC per WAL shard: an abandoned
// (half-logged) transaction's packets expire off their home shard via the
// cleaner, its temp object is removed, and the daemon forgets the half it
// assembled.
func TestP3ShardedWALGC(t *testing.T) {
	dep := newShardedDep(t, sim.Strict, 4)
	p := NewP3(dep, Options{ChunkSize: 64})
	dep.Env.InstallFaults(nil).CrashAt(CrashClientAfterPackets, 1)
	_, _, out, _, outB := onePipeline(t, 9)
	if err := p.Commit(out, outB); err == nil {
		t.Fatal("injected client crash did not surface")
	}
	if dep.WAL.Len() == 0 {
		t.Fatal("expected abandoned packets on the WAL")
	}
	if err := p.Settle(); err != nil || p.PendingTxns() != 1 {
		t.Fatalf("settle: %v, %d pending; want the abandoned transaction assembling", err, p.PendingTxns())
	}
	dep.Env.Clock().Advance(5 * 24 * time.Hour)
	if _, err := p.RunCleaner(); err != nil {
		t.Fatal(err)
	}
	if n := dep.WAL.Len(); n != 0 {
		t.Fatalf("abandoned packets survived retention: %d", n)
	}
	if n := p.PendingTxns(); n != 0 {
		t.Fatalf("the cleaner kept %d abandoned transactions past their packets' retention", n)
	}
	if keys, _, _ := dep.Store.ListAll(TmpPrefix); len(keys) != 0 {
		t.Fatalf("abandoned temp objects survived the cleaner: %v", keys)
	}
}
