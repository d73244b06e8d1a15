package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// poolTxns builds n independent transactions of k bundles each (one process
// plus a k-1 deep version chain of one file), refs drawn from a dedicated
// stream so counts are exact.
func poolTxns(seed int64, n, k int) (objs []FileObject, bundles [][]prov.Bundle) {
	rnd := sim.NewRand(seed)
	for t := 0; t < n; t++ {
		procRef := prov.Ref{UUID: [16]byte(newRefUUID(rnd)), Version: 1}
		fileUUID := [16]byte(newRefUUID(rnd))
		path := fmt.Sprintf("mnt/pool/%04d", t)
		set := []prov.Bundle{{
			Ref: procRef, Type: prov.Process, Name: "poolprog",
			Records: []prov.Record{
				{Attr: prov.AttrType, Value: "proc"},
				{Attr: prov.AttrEnv, Value: strings.Repeat("e", 700)},
			},
		}}
		var last prov.Ref
		for v := 1; v < k; v++ {
			ref := prov.Ref{UUID: fileUUID, Version: v}
			recs := []prov.Record{
				{Attr: prov.AttrType, Value: "file"},
				{Attr: prov.AttrName, Value: path},
				{Attr: prov.AttrInput, Xref: procRef},
			}
			if v > 1 {
				recs = append(recs, prov.Record{Attr: prov.AttrPrevVer, Xref: last})
			}
			set = append(set, prov.Bundle{Ref: ref, Type: prov.File, Name: path, Records: recs})
			last = ref
		}
		objs = append(objs, FileObject{Path: path, Size: 2048, Ref: last})
		bundles = append(bundles, set)
	}
	return objs, bundles
}

func newRefUUID(rnd *sim.Rand) [16]byte {
	var u [16]byte
	copy(u[:], rnd.Bytes(16))
	u[6] = (u[6] & 0x0f) | 0x40
	u[8] = (u[8] & 0x3f) | 0x80
	return u
}

// TestP3DaemonCrashRecoveryWorkerPool re-runs the crash-point matrix with
// the commit-daemon pool enabled: for any N >= 1, an injected daemon death
// at any point must be recovered by the surviving/successor workers after
// the visibility timeout, with exactly-once final state.
func TestP3DaemonCrashRecoveryWorkerPool(t *testing.T) {
	for _, workers := range []int{1, 2, 5} {
		for i, point := range daemonCrashPoints {
			t.Run(fmt.Sprintf("workers=%d/%d", workers, i+1), func(t *testing.T) {
				dep := newDep(t, sim.Eventual)
				dep.WAL.SetVisibility(5 * time.Second)
				p := NewP3(dep, Options{CommitWorkers: workers})
				_, _, out, _, outB := onePipeline(t, 13)
				if err := p.Commit(out, outB); err != nil {
					t.Fatal(err)
				}
				dep.Env.InstallFaults(nil).CrashAt(point, 0)
				_ = p.Settle() // one worker dies mid-commit
				dep.Env.Clock().Advance(10 * time.Second)
				if err := p.Settle(); err != nil {
					t.Fatal(err)
				}
				dep.Settle()
				o, err := p.Fetch(out.Path)
				if err != nil {
					t.Fatalf("data not committed after recovery: %v", err)
				}
				if ref, err := linkedRef(o.Metadata); err != nil || ref != out.Ref {
					t.Fatalf("bad link after recovery: %v %v", ref, err)
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

// TestP3WorkerPoolExactlyOnce drains one WAL carrying many transactions
// with four concurrent daemons, duplicate delivery injected on every send
// and a daemon crash mid-drain, and asserts the exactly-once end state:
// every item present exactly once, every object linked, no leaked temp
// objects, an empty WAL, and no half-assembled transactions.
func TestP3WorkerPoolExactlyOnce(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Seed = 99
	cfg.DupProb = 0.3
	dep := NewDeployment(sim.NewEnv(cfg))
	dep.WAL.SetVisibility(2 * time.Second)
	p := NewP3(dep, Options{CommitWorkers: 4})

	const txns, perTxn = 40, 8
	objs, bundles := poolTxns(5, txns, perTxn)
	for i := range objs {
		if err := p.Commit(objs[i], bundles[i]); err != nil {
			t.Fatal(err)
		}
	}
	dep.Env.InstallFaults(nil).CrashAt(CrashAfterDB, 0) // one worker dies mid-drain
	_ = p.Settle()
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
			t.Fatalf("object %s link = %v err=%v, want %v", objs[i].Path, ref, err, objs[i].Ref)
		}
	}
	if keys, _, _ := dep.Store.ListAll(TmpPrefix); len(keys) != 0 {
		t.Fatalf("leaked temp objects: %v", keys)
	}
	if n := dep.WAL.Len(); n != 0 {
		t.Fatalf("WAL holds %d messages after settle", n)
	}
	if n := p.PendingTxns(); n != 0 {
		t.Fatalf("%d transactions still pending", n)
	}
}

// TestP3HalfAcknowledgedRedelivery proves the commit stays idempotent when
// receipt cleanup dies part-way: the transaction is durable, its leftover
// WAL messages reappear after the visibility timeout, and the daemons
// absorb them as acknowledgements of a committed transaction instead of
// re-running the commit.
func TestP3HalfAcknowledgedRedelivery(t *testing.T) {
	dep := newDep(t, sim.Eventual)
	dep.WAL.SetVisibility(60 * time.Second)
	p := NewP3(dep, Options{CommitWorkers: 3})
	p.SetChunkSize(64) // force several packets -> several receipts
	_, _, out, _, outB := onePipeline(t, 41)
	if err := p.Commit(out, outB); err != nil {
		t.Fatal(err)
	}
	dep.Env.InstallFaults(nil).CrashAt(CrashCleanupAfterReceipts, 1) // cleanup dies after acknowledging one receipt
	if err := p.Settle(); err != nil {
		t.Fatal(err)
	}
	dep.Settle()

	// The commit itself must be durable and complete...
	o, err := p.Fetch(out.Path)
	if err != nil {
		t.Fatal(err)
	}
	if ref, err := linkedRef(o.Metadata); err != nil || ref != out.Ref {
		t.Fatalf("link = %v err=%v", ref, err)
	}
	items := dep.DB.ItemCount()
	puts := dep.Env.Meter().Usage().OpsByKind["sdb.BatchPutAttributes"]
	// ...but the WAL still holds the half-acknowledged remainder.
	if dep.WAL.Len() == 0 {
		t.Fatal("expected unacknowledged receipts after mid-cleanup death")
	}

	// After the visibility timeout the remainder is redelivered; the
	// committed-transaction path must ack it without re-running the commit.
	dep.Env.Clock().Advance(2 * time.Minute)
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
	if n := p.PendingTxns(); n != 0 {
		t.Fatalf("%d transactions pending after redelivery", n)
	}
}
