package core

import (
	"context"
	"errors"
	"testing"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// staticDigest commits the same pool workload on a static K-way fabric and
// returns its read-back digest — the reference a resharded fabric must match.
func staticDigest(t *testing.T, seed int64, k, txns, perTxn int, uuids []uuid.UUID) string {
	t.Helper()
	dep := newShardedDep(t, sim.Eventual, k)
	p := NewP3(dep, Options{CommitWorkers: 2})
	objs, bundles := poolTxns(seed, txns, perTxn)
	for i := range objs {
		if err := p.Commit(objs[i], bundles[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Settle(); err != nil {
		t.Fatal(err)
	}
	dep.Settle()
	return provDigest(t, dep, uuids)
}

// TestReshardPipelinedCopyUnderIngest drives the pipelined copy over a
// source shard several SELECT pages deep while a writer keeps committing:
// the scanner runs ahead of its own BatchPuts, batches of several pages are
// in flight together, and still nothing may be lost or duplicated.
func TestReshardPipelinedCopyUnderIngest(t *testing.T) {
	const txns, perTxn, seed = 240, 4, 55
	preload := txns * 3 / 4 // 720 items: a 4-page scan of the one source shard
	dep := newShardedDep(t, sim.Eventual, 1)
	p := NewP3(dep, Options{CommitWorkers: 2})
	objs, bundles := poolTxns(seed, txns, perTxn)
	var uuids []uuid.UUID
	for i := range objs {
		for _, b := range bundles[i] {
			if b.Ref.Version == 1 {
				uuids = append(uuids, b.Ref.UUID)
			}
		}
	}
	for i := 0; i < preload; i++ {
		if err := p.Commit(objs[i], bundles[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Settle(); err != nil {
		t.Fatal(err)
	}
	if n := dep.DB.ItemCount(); n < 3*reshardCopyPage {
		t.Fatalf("preload of %d items is not a >=3-page copy", n)
	}
	done := make(chan error, 1)
	go func() {
		for i := preload; i < txns; i++ {
			if err := p.Commit(objs[i], bundles[i]); err != nil {
				done <- err
				return
			}
			if _, err := p.CommitOnce(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	stats, err := dep.Reshard(context.Background(), Topology{WALShards: 4, DBShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := p.Settle(); err != nil {
		t.Fatal(err)
	}
	dep.Settle()

	if got, want := dep.DB.ItemCount(), txns*perTxn; got != want {
		t.Fatalf("items = %d, want exactly %d (lost or duplicated)", got, want)
	}
	mis, dup, err := AuditFabric(dep)
	if err != nil || mis != 0 || dup != 0 {
		t.Fatalf("audit: misplaced=%d duplicates=%d err=%v", mis, dup, err)
	}
	if got, want := provDigest(t, dep, uuids), staticDigest(t, seed, 4, txns, perTxn, uuids); got != want {
		t.Error("fabric resharded through the pipelined copy diverged from static K=4")
	}
	// Full batches except one remainder per target: 1 source, 3 new homes.
	full := stats.CopiedItems / sdb.MaxBatchItems
	if stats.CopyBatches < full || stats.CopyBatches > full+3 {
		t.Errorf("copied %d items in %d requests, want %d full batches plus at most 3 remainders",
			stats.CopiedItems, stats.CopyBatches, full)
	}
	if stats.CopiedItems < preload*perTxn/2 {
		t.Errorf("copied only %d of a %d-item preload on a 1->4 grow", stats.CopiedItems, preload*perTxn)
	}
	t.Logf("copied %d items in %d requests; GC'd %d in %d", stats.CopiedItems, stats.CopyBatches, stats.GCItems, stats.GCBatches)
}

// TestReshardGCBatchesPerPage pins the GC's request count: every scanned
// page's stale names leave in ceil(stale/25) BatchDeleteAttributes calls and
// not one single-item DeleteAttributes.
func TestReshardGCBatchesPerPage(t *testing.T) {
	dep, _, uuids := reshardWorkload(t, 1, 130, 4) // 520 items: 3 GC pages on the old shard
	before := provDigest(t, dep, uuids)
	dep.Env.InstallFaults(nil).CrashAt(ReshardCrashPreGC, 0)
	if _, err := dep.Reshard(context.Background(), Topology{WALShards: 4, DBShards: 4}); !errors.Is(err, sim.ErrCrashed) {
		t.Fatalf("crash did not fire: %v", err)
	}

	// Replay the GC's scan by hand on the intact garbage.
	epoch := dep.DB.Directory().Active()
	wantItems, wantBatches, pages := 0, 0, 0
	for s := 0; s < dep.DB.Shards(); s++ {
		dom := dep.DB.Shard(s)
		q := sdb.Query{Domain: dom.Name(), ItemOnly: true, Consistent: true, Limit: reshardCopyPage}
		for token := ""; ; {
			page, err := dom.SelectQuery(q, token)
			if err != nil {
				t.Fatal(err)
			}
			stale := 0
			for _, it := range page.Items {
				if epoch.Route(sdb.RouteKey(it.Name)) != s {
					stale++
				}
			}
			wantItems += stale
			wantBatches += (stale + sdb.MaxBatchItems - 1) / sdb.MaxBatchItems
			pages++
			if token = page.NextToken; token == "" {
				break
			}
		}
	}
	if pages < 6 || wantItems == 0 { // 3 pages of the old shard, at least 1 of each new one
		t.Fatalf("scan replay: %d pages, %d stale items — not a multi-page GC", pages, wantItems)
	}

	u0 := dep.Env.Meter().Usage()
	stats, resumed, err := ResumeReshard(context.Background(), dep)
	if err != nil || !resumed {
		t.Fatalf("resume: resumed=%v err=%v", resumed, err)
	}
	u1 := dep.Env.Meter().Usage()
	if stats.GCItems != wantItems || stats.GCBatches != wantBatches {
		t.Errorf("GC deleted %d items in %d requests, want %d in %d", stats.GCItems, stats.GCBatches, wantItems, wantBatches)
	}
	if got := u1.OpsByKind["sdb.BatchDeleteAttributes"] - u0.OpsByKind["sdb.BatchDeleteAttributes"]; got != int64(wantBatches) {
		t.Errorf("metered %d batch deletes, want %d", got, wantBatches)
	}
	if got := u1.OpsByKind["sdb.DeleteAttributes"] - u0.OpsByKind["sdb.DeleteAttributes"]; got != 0 {
		t.Errorf("GC still issued %d single-item deletes", got)
	}
	dep.Settle()
	if mis, dup, err := AuditFabric(dep); err != nil || mis != 0 || dup != 0 {
		t.Fatalf("audit: misplaced=%d duplicates=%d err=%v", mis, dup, err)
	}
	if got := provDigest(t, dep, uuids); got != before {
		t.Error("digest changed across the batched GC")
	}
	// The drained shard really shrank: once the tombstones settled, a scan
	// of it examines only what it still owns.
	old := dep.DB.Shard(0)
	x0 := dep.Env.Meter().Usage().ItemsExamined
	var r sdb.Result
	if err := old.Drain(sdb.Query{Domain: old.Name(), ItemOnly: true}, &r); err != nil {
		t.Fatal(err)
	}
	if examined := dep.Env.Meter().Usage().ItemsExamined - x0; examined != int64(len(r.Items)) {
		t.Errorf("old shard scan examined %d names for %d live items: GC'd names still held", examined, len(r.Items))
	}
}

// TestReshardShrinkResendsInIdempotentBatches: the shrink path moves the
// stranded WAL packets in SendMessageBatch/DeleteMessageBatch calls, and a
// send the service applied but reported failed is retried without enqueueing
// any packet a second time.
func TestReshardShrinkResendsInIdempotentBatches(t *testing.T) {
	const txns, perTxn = 12, 4
	dep := newShardedDep(t, sim.Eventual, 4)
	p := NewP3(dep, Options{CommitWorkers: 2})
	objs, bundles := poolTxns(7, txns, perTxn)
	for i := range objs {
		if err := p.Commit(objs[i], bundles[i]); err != nil {
			t.Fatal(err)
		}
	}
	logged := dep.WAL.Len() // no daemon has run: every packet is still queued
	if logged == 0 {
		t.Fatal("expected logged packets before the shrink")
	}
	// Every third batch send is applied and then reported failed.
	dep.Env.InstallFaults(sim.FaultPlan{"sqs": {Prob: 0.34, ApplyProb: 1, Ops: []string{"sqs.SendMessageBatch"}}})
	u0 := dep.Env.Meter().Usage()
	stats, err := dep.Reshard(context.Background(), Topology{WALShards: 2, DBShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	u1 := dep.Env.Meter().Usage()
	dep.Env.Faults().SetPlan(nil)
	if u1.Faults == u0.Faults {
		t.Fatal("no send faulted: the test did not exercise the retry")
	}
	if stats.WALMigrated == 0 {
		t.Fatal("shrink moved no WAL messages")
	}
	if got := dep.WAL.Len(); got != logged {
		t.Fatalf("WAL holds %d packets after the shrink, %d before: a retried send enqueued twice (or lost one)", got, logged)
	}
	for _, kind := range []string{"sqs.SendMessage", "sqs.DeleteMessage"} {
		if got := u1.OpsByKind[kind] - u0.OpsByKind[kind]; got != 0 {
			t.Errorf("shrink issued %d %s requests; the path is batched", got, kind)
		}
	}
	sends := u1.OpsByKind["sqs.SendMessageBatch"] - u0.OpsByKind["sqs.SendMessageBatch"]
	if sends == 0 || sends >= int64(stats.WALMigrated) {
		t.Errorf("%d batch sends for %d moved packets: not batching", sends, stats.WALMigrated)
	}
	if err := p.Settle(); err != nil {
		t.Fatal(err)
	}
	dep.Settle()
	if got, want := dep.DB.ItemCount(), txns*perTxn; got != want {
		t.Fatalf("items = %d, want exactly %d", got, want)
	}
	if n := p.PendingTxns(); n != 0 {
		t.Fatalf("%d transactions still pending after shrink settle", n)
	}
}
