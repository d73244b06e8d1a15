package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/cloud/sqs"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// liveDep is a strict K-way deployment on a live clock at scale.
func liveDep(scale float64, k int) *Deployment {
	cfg := sim.DefaultConfig()
	cfg.TimeScale = scale
	cfg.Consistency = sim.Strict
	return NewShardedDeployment(sim.NewEnv(cfg), Topology{WALShards: k, DBShards: k})
}

// runDaemon starts p's pool and returns its stop, which returns once
// RunDaemon has.
func runDaemon(p *P3, poll time.Duration) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		p.RunDaemon(quit, poll)
	}()
	return func() {
		close(quit)
		<-done
	}
}

// waitFor polls cond on the wall clock until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// bandTxn is one front-door-shaped transaction, pure provenance, minted in
// band so its items and its packets co-shard: a file, and for odd i the
// process that wrote it.
func bandTxn(rnd *sim.Rand, band sim.Band, i int) (FileObject, []prov.Bundle) {
	proc := prov.Ref{UUID: MintBandUUID(rnd, band), Version: 1}
	file := prov.Ref{UUID: MintBandUUID(rnd, band), Version: 1}
	path := fmt.Sprintf("mnt/live/%04d", i)
	bundles := []prov.Bundle{{Ref: file, Type: prov.File, Name: path, Records: []prov.Record{
		{Attr: prov.AttrType, Value: "file"}, {Attr: prov.AttrName, Value: path},
		{Attr: prov.AttrInput, Xref: proc},
	}}}
	if i%2 == 1 {
		bundles = append([]prov.Bundle{{Ref: proc, Type: prov.Process, Name: "gen", Records: []prov.Record{
			{Attr: prov.AttrType, Value: "proc"}, {Attr: prov.AttrName, Value: "gen"},
		}}}, bundles...)
	}
	return FileObject{Ref: file}, bundles
}

// TestLiveDaemonPipelineFillsBatchesAndStrandsNothing offers a fixed load
// to a 4-worker pool on a K=2 fabric. Every transaction is named in exactly
// one commit notice; once RunDaemon returns, nothing is left in the group
// former or the acknowledgement buffers (the WAL is empty and no transaction
// is pending); groups close on full BatchPutAttributes calls; and receipts
// are acknowledged in full batches, one partial per shard at most.
func TestLiveDaemonPipelineFillsBatchesAndStrandsNothing(t *testing.T) {
	const (
		txns  = 400
		burst = 8
		every = 128 * time.Millisecond // simulated, between bursts: 62.5 transactions per second
	)
	dep := liveDep(50, 2)
	p := NewP3(dep, Options{CommitWorkers: 4})
	var mu sync.Mutex
	named := make(map[uuid.UUID]int)
	defer dep.Commits.Subscribe(func(n CommitNotice) int64 {
		mu.Lock()
		defer mu.Unlock()
		for _, txn := range n.Txns {
			named[txn]++
		}
		return 0
	})()
	stop := runDaemon(p, 2*time.Second)

	rnd := sim.NewRand(3)
	clock := dep.Env.Clock()
	var clients sync.WaitGroup
	errs := make([]error, txns)
	for i := 0; i < txns; i++ {
		band := sim.Band(rnd.Intn(256))
		obj, bundles := bandTxn(rnd, band, i)
		clients.Add(1)
		go func() {
			defer clients.Done()
			errs[i] = p.CommitInBand(band, obj, bundles)
		}()
		if i%burst == burst-1 {
			clock.Sleep(every)
		}
	}
	clients.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	waitFor(t, "every transaction to be noticed", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(named) == txns
	})
	stop()

	if n := dep.WAL.Len(); n != 0 {
		t.Errorf("WAL holds %d messages right after RunDaemon returned", n)
	}
	if n := p.PendingTxns(); n != 0 {
		t.Errorf("%d transactions pending right after RunDaemon returned", n)
	}
	for txn, n := range named {
		if n != 1 {
			t.Errorf("txn %s named in %d notices", txn, n)
		}
	}
	ops := dep.Env.Meter().Usage().OpsByKind
	items := txns + txns/2
	if got := dep.DB.ItemCount(); got != items {
		t.Fatalf("items = %d, want %d", got, items)
	}
	if puts := ops["sdb.BatchPutAttributes"]; float64(items)/float64(puts) < 20 {
		t.Errorf("%d BatchPutAttributes for %d items: %.1f items a call, want >= 20", puts, items, float64(items)/float64(puts))
	}
	if dels, limit := ops["sqs.DeleteMessageBatch"], int64((txns+9)/10+dep.WAL.Shards()); dels > limit {
		t.Errorf("%d DeleteMessageBatch calls for %d single-packet transactions, want <= %d", dels, txns, limit)
	}
}

// TestLiveDaemonFormerCutsWholeBatches: the group former closes a group only
// when whole transactions fill whole batches exactly, passing over an older
// transaction that would overflow them for a younger one that fits.
func TestLiveDaemonFormerCutsWholeBatches(t *testing.T) {
	q := &homeQueue{}
	push := func(items int) []*txnState {
		q.txns = append(q.txns, waiting{st: &txnState{}, items: items})
		if q.items += items; q.items < sdb.MaxBatchItems {
			return nil
		}
		return q.cut()
	}
	for i := 0; i < 13; i++ { // 26 items, and no whole subset makes 25
		if g := push(2); g != nil {
			t.Fatalf("transaction %d closed a group of %d", i, len(g))
		}
	}
	older := q.txns[12]
	g := push(1)
	if len(g) != 13 || q.items != 2 || len(q.txns) != 1 || q.txns[0] != older {
		t.Fatalf("group of %d, queue left with %d items in %d transactions; want 13, and the 2-item transaction left waiting", len(g), q.items, len(q.txns))
	}
}

// TestLiveDaemonLeavesNothingSleeping stops the pool with groups still in
// flight. Once RunDaemon has returned, flipping to the manual clock must
// leave simulated time still: a group left sleeping would advance it. And
// every transaction a notice named has had its packet acknowledged.
func TestLiveDaemonLeavesNothingSleeping(t *testing.T) {
	const txns = 40
	dep := liveDep(50, 2)
	p := NewP3(dep, Options{CommitWorkers: 4})
	var noticed atomic.Int64
	defer dep.Commits.Subscribe(func(n CommitNotice) int64 {
		noticed.Add(int64(len(n.Txns)))
		return 0
	})()
	stop := runDaemon(p, time.Second)
	rnd := sim.NewRand(9)
	var clients sync.WaitGroup
	for i := 0; i < txns; i++ {
		band := sim.Band(rnd.Intn(256))
		obj, bundles := bandTxn(rnd, band, i)
		clients.Add(1)
		go func() {
			defer clients.Done()
			if err := p.CommitInBand(band, obj, bundles); err != nil {
				t.Error(err)
			}
		}()
	}
	clients.Wait()
	dep.Env.Clock().Sleep(3 * time.Second) // the daemons are mid-group
	stop()
	dep.Env.Clock().SetScale(0)
	at := dep.Env.Now()
	for i := 0; i < 200; i++ {
		runtime.Gosched()
		time.Sleep(50 * time.Microsecond)
		if now := dep.Env.Now(); now != at {
			t.Fatalf("simulated time moved %v after RunDaemon returned", now-at)
		}
	}
	if n := p.PendingTxns(); n != 0 {
		t.Fatalf("%d transactions pending after RunDaemon returned", n)
	}
	if n, left := noticed.Load(), dep.WAL.Len(); n == 0 || int64(left) != txns-n {
		t.Fatalf("%d of %d transactions noticed, %d packets left in the WAL", n, txns, left)
	}
}

// TestP3CommittedForgottenAfterRetention: the table of committed
// transactions used to keep one entry per transaction for ever. A redelivery
// inside the WAL's retention is still acknowledged, not re-committed; once
// the retention has passed, the cleaner forgets the transaction.
func TestP3CommittedForgottenAfterRetention(t *testing.T) {
	dep := newDep(t, sim.Strict)
	dep.WAL.SetVisibility(time.Minute)
	p := NewP3(dep, Options{ChunkSize: 64}) // several packets, so a cleanup can die part-way
	objs, bundles := poolTxns(23, 1, 3)
	if err := p.Commit(objs[0], bundles[0]); err != nil {
		t.Fatal(err)
	}
	dep.Env.InstallFaults(nil).CrashAt(CrashCleanupAfterReceipts, 1)
	if err := p.Settle(); err != nil {
		t.Fatal(err)
	}
	committed := func() int {
		n := 0
		for i := range p.shards {
			n += len(p.shards[i].committed)
		}
		return n
	}
	if committed() != 0 || dep.WAL.Len() == 0 {
		t.Fatalf("after a cleanup that died: %d committed, %d packets in the WAL; want none (the daemon's record died with it) and some", committed(), dep.WAL.Len())
	}

	// The redelivered packets are acknowledged without a second commit, and
	// the transaction is recorded as committed; inside the retention the
	// cleaner keeps the entry.
	dep.Env.Clock().Advance(2 * time.Minute)
	puts := dep.Env.Meter().Usage().OpsByKind["sdb.BatchPutAttributes"]
	if err := p.Settle(); err != nil {
		t.Fatal(err)
	}
	if n := dep.WAL.Len(); n != 0 {
		t.Fatalf("WAL holds %d packets after the redelivery", n)
	}
	if got := dep.Env.Meter().Usage().OpsByKind["sdb.BatchPutAttributes"]; got != puts {
		t.Fatalf("the redelivery re-ran the commit: %d -> %d BatchPutAttributes", puts, got)
	}
	if !redelivered(dep) {
		t.Fatal("no packet was delivered twice")
	}
	if _, err := p.RunCleaner(); err != nil {
		t.Fatal(err)
	}
	if committed() != 1 {
		t.Fatalf("%d committed entries inside the retention, want 1", committed())
	}

	dep.Env.Clock().Advance(sqs.Retention + time.Minute)
	if _, err := p.RunCleaner(); err != nil {
		t.Fatal(err)
	}
	if n := committed(); n != 0 {
		t.Fatalf("%d committed entries past the WAL's retention, want 0", n)
	}
}
