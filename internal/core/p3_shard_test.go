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

// TestP3ShardedCrashRecoveryMatrix re-runs the daemon crash-point matrix
// across fabric widths: for K ∈ {1, 2, 4} WAL/domain shards, any worker
// count and any injected daemon death, recovery after the visibility
// timeout must reach the exactly-once end state on every shard.
func TestP3ShardedCrashRecoveryMatrix(t *testing.T) {
	const txns, perTxn = 12, 5
	for _, k := range []int{1, 2, 4} {
		for _, workers := range []int{1, 2, 5} {
			for i, point := range daemonCrashPoints {
				t.Run(fmt.Sprintf("k=%d/workers=%d/%d", k, workers, i+1), func(t *testing.T) {
					dep := newShardedDep(t, sim.Eventual, k)
					dep.WAL.SetVisibility(5 * time.Second)
					p := NewP3(dep, Options{CommitWorkers: workers})
					objs, bundles := poolTxns(int64(17+k), txns, perTxn)
					for i := range objs {
						if err := p.Commit(objs[i], bundles[i]); err != nil {
							t.Fatal(err)
						}
					}
					dep.Env.InstallFaults(nil).CrashAt(point, 0)
					_ = p.Settle() // one worker dies mid-commit
					dep.Env.Clock().Advance(10 * time.Second)
					if err := p.Settle(); err != nil {
						t.Fatal(err)
					}
					dep.Settle()
					if got, want := dep.DB.ItemCount(), txns*perTxn; got != want {
						t.Fatalf("items = %d, want exactly %d", got, want)
					}
					for i := range objs {
						o, err := p.Fetch(objs[i].Path)
						if err != nil {
							t.Fatalf("object %s missing: %v", objs[i].Path, err)
						}
						if ref, err := linkedRef(o.Metadata); err != nil || ref != objs[i].Ref {
							t.Fatalf("object %s link = %v err=%v", objs[i].Path, ref, err)
						}
					}
					if keys, _, _ := dep.Store.ListAll(TmpPrefix); len(keys) != 0 {
						t.Fatalf("temp not cleaned after recovery: %v", keys)
					}
					if dep.WAL.Len() != 0 {
						t.Fatal("WAL not acknowledged after recovery")
					}
					if p.PendingTxns() != 0 {
						t.Fatal("pending transactions after recovery")
					}
					noCrashLeftArmed(t, dep.Env)
				})
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
	p := NewP3(dep, Options{CommitWorkers: 3})
	p.SetChunkSize(64) // force several packets -> several receipts
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
}

// TestP3ShardedWALGC proves retention-based GC per WAL shard: an abandoned
// (half-logged) transaction's packets expire off their home shard via the
// cleaner even when no daemon polls it, and its temp object is removed.
func TestP3ShardedWALGC(t *testing.T) {
	dep := newShardedDep(t, sim.Strict, 4)
	dep.WAL.SetRetention(time.Hour)
	p := NewP3(dep, Options{})
	p.SetChunkSize(64)
	dep.Env.InstallFaults(nil).CrashAt(CrashClientAfterPackets, 1)
	_, _, out, _, outB := onePipeline(t, 9)
	if err := p.Commit(out, outB); err == nil {
		t.Fatal("injected client crash did not surface")
	}
	if dep.WAL.Len() == 0 {
		t.Fatal("expected abandoned packets on the WAL")
	}
	dep.Env.Clock().Advance(5 * 24 * time.Hour)
	if _, err := p.RunCleaner(time.Hour); err != nil {
		t.Fatal(err)
	}
	if n := dep.WAL.Len(); n != 0 {
		t.Fatalf("abandoned packets survived retention: %d", n)
	}
	if keys, _, _ := dep.Store.ListAll(TmpPrefix); len(keys) != 0 {
		t.Fatalf("abandoned temp objects survived the cleaner: %v", keys)
	}
}
