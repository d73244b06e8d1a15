package fabric

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"passcloud/internal/autoscale"
	"passcloud/internal/cloud/sdb"
	"passcloud/internal/cloud/sqs"
	"passcloud/internal/cloud/store"
	"passcloud/internal/core"
	"passcloud/internal/merkle"
	"passcloud/internal/oracle"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/translog"
	"passcloud/internal/uuid"
)

// crashCase is one crash point of TestCrashRecovery: how a run reaches the
// point, what the dead process must have left, and what Recover must do
// beyond the checks every case shares (checkRecovered).
type crashCase struct {
	point     sim.CrashPoint
	n         int  // CrashAt's n
	txns      int  // workload size; 0 is 12
	chunk     int  // WAL chunk size for the workload; 0 is the default
	provOnly  bool // the workload commits provenance without data
	autoscale bool // the fabric has a controller (scaleCfg)
	// drive takes the fabric from the logged workload to the armed point,
	// crashed checks what the dead process left, and recovered what this
	// point needs of Recover beyond checkRecovered.
	drive, crashed func(t *testing.T, r *crashRun)
	recovered      func(t *testing.T, r *crashRun, rep RecoverReport)
}

// crashRun is one case at one fabric width.
type crashRun struct {
	f     *Fabric
	k     int
	objs  []core.FileObject
	uuids []uuid.UUID
	attrs []sdb.PutRequest // the first transaction's items
	twin  twin
	stats core.ReshardStats // what a crashed reshard reported
	head  translog.SignedHead
	puts  int64        // BatchPutAttributes requests made before Recover
	sent  atomic.Int64 // transactions the commit bus announced
}

func settle(t *testing.T, r *crashRun) {
	t.Helper()
	if err := r.f.P3.Settle(); err != nil {
		t.Fatal(err)
	}
}

// reshardTo2 crashes a resharder taking the fabric from K to 2: a grow at
// K=1, a shrink at K=4.
func reshardTo2(t *testing.T, r *crashRun) {
	settle(t, r)
	var err error
	r.stats, err = r.f.Dep.Reshard(context.Background(), core.Topology{WALShards: 2, DBShards: 2})
	if !errors.Is(err, sim.ErrCrashed) {
		t.Fatalf("reshard: %v, want the crash", err)
	}
}

// readsIdentical: readers never see a dead resharder's migration.
func readsIdentical(t *testing.T, r *crashRun) {
	r.f.Dep.Settle()
	if got := digest(t, r.f, r.uuids); got != r.twin.digest {
		t.Error("reads diverged while the resharder was dead")
	}
}

func resumed(t *testing.T, r *crashRun, rep RecoverReport) {
	if !rep.Resumed || rep.Reshard.Epoch == 0 {
		t.Errorf("Recover resumed=%v into epoch %d, want the migration rolled forward", rep.Resumed, rep.Reshard.Epoch)
	}
	if got := r.f.Dep.DB.Directory().Active().Shards; got != 2 {
		t.Errorf("K=%d after Recover, want 2", got)
	}
}

// crashedCheckpoint settles the workload, records the head a never-crashed
// sequencer signs over its leaves, and kills the sequencer in a checkpoint.
func crashedCheckpoint(t *testing.T, r *crashRun) {
	settle(t, r)
	leaves := r.f.Log.Leaves()
	hashes := make([]merkle.Digest, len(leaves))
	for i, lf := range leaves {
		hashes[i] = lf.Hash()
	}
	r.head = translog.SignedHead{TreeSize: len(leaves), Root: merkle.LogRoot(hashes).String(), SimNanos: leaves[len(leaves)-1].SimNanos}
	if _, err := r.f.Log.Checkpoint(); !errors.Is(err, sim.ErrCrashed) {
		t.Fatalf("checkpoint: %v, want the crash", err)
	}
}

// sameHead: the rolled-forward head is byte for byte the never-crashed one.
func sameHead(t *testing.T, r *crashRun, rep RecoverReport) {
	h := r.f.Log.Head()
	if r.head.Sig = h.Sig; h != r.head || !h.Verify(r.f.Log.Public()) || rep.LogSize != h.TreeSize {
		t.Errorf("head after Recover %+v (log size %d), want %+v signed by the log", h, rep.LogSize, r.head)
	}
}

// scaleCfg is the controller of the controller cases: 400 ops/s on one
// shard grows K=1 to MaxK=2, and an idle window shrinks K=4 to MinK=2.
var scaleCfg = autoscale.Config{MinK: 2, MaxK: 2, GrowOpsPerShard: 100, ShrinkOpsPerShard: 20,
	TargetOpsPerShard: 150, GrowBacklogPerShard: 1 << 30, Cooldown: 30 * time.Second}

// overload feeds one window that moves the controller to K=2.
func overload(r *crashRun) {
	if r.k == 1 {
		m, wal := r.f.Env.Meter(), r.f.Dep.WAL.Shard(0).Name()
		for i := 0; i < 4000; i++ {
			m.CountEndpointOp(wal)
		}
	}
	r.f.Env.Clock().Advance(10 * time.Second)
}

// decide settles, takes a baseline sample and kills the next decision.
func decide(t *testing.T, r *crashRun) {
	settle(t, r)
	if err := r.f.Ctl.Step(context.Background()); err != nil { // the baseline
		t.Fatal(err)
	}
	overload(r)
	if err := r.f.Ctl.Step(context.Background()); !errors.Is(err, sim.ErrCrashed) {
		t.Fatalf("controller step: %v, want the crash", err)
	}
}

// record reads the persisted decision record, as a restarted controller does.
func record(t *testing.T, f *Fabric) (rec autoscale.DecisionRecord, ok bool) {
	t.Helper()
	f.Dep.Settle()
	o, err := f.Dep.Store.Get(autoscale.RecordKey)
	if errors.Is(err, store.ErrNoSuchKey) {
		return rec, false
	}
	if err := cmp.Or(err, json.Unmarshal(o.Data, &rec)); err != nil {
		t.Fatal(err)
	}
	return rec, true
}

// leftDecided wants the record a controller that died after persisting it
// leaves, at width k (0: where it started) and epoch epoch.
func leftDecided(k, epoch int) func(*testing.T, *crashRun) {
	return func(t *testing.T, r *crashRun) {
		if rec, ok := record(t, r.f); !ok || rec.State != autoscale.RecordDecided || rec.TargetK != 2 {
			t.Errorf("record %+v ok=%v, want decided toward 2", rec, ok)
		}
		if got, e := r.f.Dep.DB.Directory().Active().Shards, r.f.Dep.DB.Directory().Epoch(); got != cmp.Or(k, r.k) || e != epoch {
			t.Errorf("K=%d epoch %d, want K=%d epoch %d", got, e, cmp.Or(k, r.k), epoch)
		}
	}
}

// closedOnce wants the fabric at 2 and the record closed, in exactly one
// epoch and one counted decision: a double trigger would have re-copied.
func closedOnce(t *testing.T, r *crashRun, _ RecoverReport) {
	if rec, ok := record(t, r.f); !ok || rec.State != autoscale.RecordDone || rec.TargetK != 2 {
		t.Errorf("record %+v ok=%v, want done at 2", rec, ok)
	}
	if st := r.f.Ctl.Status(); st.Grows+st.Shrinks != 1 {
		t.Errorf("the restarted controller counted %d grows and %d shrinks, want one decision", st.Grows, st.Shrinks)
	}
	if k, e := r.f.Dep.DB.Directory().Active().Shards, r.f.Dep.DB.Directory().Epoch(); k != 2 || e != 1 {
		t.Errorf("K=%d epoch %d, want K=2 in epoch 1", k, e)
	}
}

// groupDies runs commit rounds over the workload until the group commit
// that reaches the armed point dies, and with it the daemon.
func groupDies(t *testing.T, r *crashRun) {
	for len(r.f.Env.Faults().ArmedCrashes()) > 0 {
		progress, err := r.f.P3.CommitOnce()
		if err != nil && !errors.Is(err, sim.ErrCrashed) || !progress {
			t.Fatalf("commit round: progress %v, err %v; want the crash", progress, err)
		}
	}
}

// groupHeld: the dead group's packets are held invisible on the WAL.
func groupHeld(t *testing.T, r *crashRun) {
	if r.f.Dep.WAL.Len() == 0 {
		t.Error("the dead group's packets are not on the WAL")
	}
}

// cutShort: the packets a cleanup cut short left are held on the WAL while
// the rest of the workload commits.
func cutShort(t *testing.T, r *crashRun) {
	for progress, err := true, error(nil); progress; {
		if progress, err = r.f.P3.CommitOnce(); err != nil {
			t.Fatal(err)
		}
	}
	groupHeld(t, r)
}

// notRecommitted: what a cut cleanup left is absorbed without a second
// commit, by Recover or by a running pool.
func notRecommitted(t *testing.T, r *crashRun, _ RecoverReport) {
	if puts := r.f.Env.Meter().Usage().OpsByKind["sdb.BatchPutAttributes"]; puts != r.puts {
		t.Errorf("Recover re-ran a commit: %d BatchPutAttributes, %d before", puts, r.puts)
	}
	if n, want := r.sent.Load(), int64(len(r.uuids)/2); n != want {
		t.Errorf("%d transactions committed, want each of the %d once", n, want)
	}
}

// The cases, by the process that dies.
var (
	daemonCases = []crashCase{
		{point: core.CrashBeforeDB, drive: groupDies, crashed: groupHeld},
		{point: core.CrashAfterDB, drive: groupDies, crashed: groupHeld},
		{point: core.CrashAfterCopy, drive: groupDies, crashed: groupHeld},
		// Several packets a transaction, so one can be acknowledged alone.
		{point: core.CrashCleanupAfterReceipts, n: 1, chunk: 64, drive: groupDies, crashed: cutShort, recovered: notRecommitted},
		{point: core.CrashCleanupAfterReceipts, n: 1, chunk: 64, provOnly: true, drive: groupDies, crashed: cutShort, recovered: notRecommitted},
	}
	clientCases = []crashCase{
		{point: core.CrashClientAfterPackets, n: 1, chunk: 64, drive: clientDies, crashed: clientLeftovers},
	}
	reshardCases = []crashCase{
		{point: core.ReshardCrashPreCopy, drive: reshardTo2, crashed: readsIdentical, recovered: resumed},
		// Enough movers that the flush pool holds batches in flight when the
		// first is durable.
		{point: core.ReshardCrashMidCopy, txns: 250, drive: reshardTo2, crashed: midCopy, recovered: copiedRest},
		{point: core.ReshardCrashPreCutover, drive: reshardTo2, crashed: readsIdentical, recovered: resumed},
		{point: core.ReshardCrashPreGC, drive: reshardTo2, crashed: readsIdentical, recovered: resumed},
	}
	checkpointCases = []crashCase{
		{point: translog.CrashMidBatch, drive: crashedCheckpoint, recovered: sameHead},
		{point: translog.CrashPostHead, drive: crashedCheckpoint, recovered: sameHead},
		{point: translog.CrashPreGC, drive: crashedCheckpoint, recovered: sameHead},
	}
	controllerCases = []crashCase{
		{point: autoscale.CrashPreRecord, autoscale: true, drive: decide, crashed: noRecord, recovered: decidesAfresh},
		{point: autoscale.CrashPreTrigger, autoscale: true, drive: decide, crashed: leftDecided(0, 0), recovered: closedOnce},
		{point: autoscale.CrashPreDone, autoscale: true, drive: decide, crashed: leftDecided(2, 1), recovered: closedOnce},
	}
)

// lostTxn is the transaction a client dies logging.
func lostTxn() (core.FileObject, []prov.Bundle) { return txn(sim.NewRand(99), 9999, 4) }

// clientDies: after the workload settles, a client dies with one packet sent.
func clientDies(t *testing.T, r *crashRun) {
	settle(t, r)
	if err := r.f.P3.Commit(lostTxn()); !errors.Is(err, sim.ErrCrashed) {
		t.Fatalf("commit: %v, want the crash", err)
	}
}

// clientLeftovers: nothing of the dead client's transaction commits; its
// temp object waits for the cleaner's age and its packet for the WAL's
// retention.
func clientLeftovers(t *testing.T, r *crashRun) {
	f := r.f
	settle(t, r)
	lost, _ := lostTxn()
	if _, err := f.P3.Fetch(lost.Path); err == nil {
		t.Error("the dead client's data committed")
	}
	if keys, _, _ := f.Dep.Store.ListAll(core.TmpPrefix); len(keys) != 1 {
		t.Fatalf("%d temp objects, want the dead client's", len(keys))
	}
	if n, err := f.P3.RunCleaner(); err != nil || n != 0 {
		t.Fatalf("cleaner removed %d (err %v) before the temp object aged", n, err)
	}
	f.Env.Clock().Advance(core.CleanerMaxAge + time.Hour)
	if n, err := f.P3.RunCleaner(); err != nil || n != 1 {
		t.Fatalf("cleaner removed %d (err %v), want the aged temp object", n, err)
	}
	if n := f.Dep.WAL.Len(); n != 0 {
		t.Errorf("WAL holds %d packets past retention", n)
	}
}

// midCopy: a copy that died on its first durable batch counts only durable
// batches — full ones, at K=1 — and left most of the movers to the resume.
func midCopy(t *testing.T, r *crashRun) {
	s := r.stats
	counted := s.CopiedItems <= s.CopyBatches*sdb.MaxBatchItems
	if r.k == 1 {
		counted = s.CopiedItems == s.CopyBatches*sdb.MaxBatchItems
	}
	if s.CopyBatches < 1 || !counted || s.CopiedItems >= r.twin.items/2 {
		t.Errorf("crashed copy reports %d items in %d requests", s.CopiedItems, s.CopyBatches)
	}
	if !r.f.Dep.DB.Directory().Migrating() {
		t.Error("a crashed copy closed the window")
	}
	readsIdentical(t, r)
}

func copiedRest(t *testing.T, r *crashRun, rep RecoverReport) {
	resumed(t, r, rep)
	if rep.Reshard.CopiedItems <= r.stats.CopiedItems {
		t.Errorf("resume copied %d items, the crashed run %d", rep.Reshard.CopiedItems, r.stats.CopiedItems)
	}
}

// noRecord: a controller that died before persisting its decision left
// nothing behind, and the fabric where it was.
func noRecord(t *testing.T, r *crashRun) {
	if rec, ok := record(t, r.f); ok {
		t.Errorf("record persisted before the crash point: %+v", rec)
	}
	if k, e := r.f.Dep.DB.Directory().Active().Shards, r.f.Dep.DB.Directory().Epoch(); k != r.k || e != 0 {
		t.Errorf("an undecided crash moved the fabric to K=%d epoch %d", k, e)
	}
}

// decidesAfresh: the restarted controller invents no record; it decides
// again from the next window, once.
func decidesAfresh(t *testing.T, r *crashRun, rep RecoverReport) {
	noRecord(t, r)
	overload(r)
	if err := r.f.Ctl.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	closedOnce(t, r, rep)
}

// txn is transaction i: a process and a three-version file it wrote, with
// 2 KB of data.
func txn(rnd *sim.Rand, i, items int) (core.FileObject, []prov.Bundle) {
	proc := prov.Ref{UUID: uuid.New(rnd), Version: 1}
	file := uuid.New(rnd)
	path := fmt.Sprintf("mnt/crash/%04d", i)
	bundles := []prov.Bundle{{Ref: proc, Type: prov.Process, Name: "gen", Records: []prov.Record{{Attr: prov.AttrType, Value: "proc"}}}}
	for v := 1; v < items; v++ {
		recs := []prov.Record{{Attr: prov.AttrName, Value: path}, {Attr: prov.AttrInput, Xref: proc}}
		if v > 1 {
			recs = append(recs, prov.Record{Attr: prov.AttrPrevVer, Xref: prov.Ref{UUID: file, Version: v - 1}})
		}
		bundles = append(bundles, prov.Bundle{Ref: prov.Ref{UUID: file, Version: v}, Type: prov.File, Name: path, Records: recs})
	}
	return core.FileObject{Path: path, Size: 2048, Ref: bundles[len(bundles)-1].Ref}, bundles
}

// digest hashes every workload uuid's provenance in order: the bytes a
// reader sees, whatever the width.
func digest(t *testing.T, f *Fabric, uuids []uuid.UUID) string {
	t.Helper()
	h := sha256.New()
	for _, u := range uuids {
		bundles, err := core.ReadProvenance(f.Dep, core.BackendSDB, u)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(prov.EncodeBundles(bundles))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// twin is what a never-crashed fabric holds after the same workload.
type twin struct {
	digest string
	items  int
}

// crashFabric builds a case's fabric at width k, with a log, and logs the
// workload: the first half settled and checkpointed, the second only on the
// WAL. On a live fabric nothing is settled; the pool drains it.
func crashFabric(t *testing.T, c crashCase, k, workers int, faults bool, scale float64, twins map[string]twin) *crashRun {
	t.Helper()
	cfg := Config{Sim: sim.Config{Seed: 11, TimeScale: scale}, Topology: core.Topology{WALShards: k, DBShards: k}, Workers: workers, Translog: true}
	if c.autoscale {
		cfg.Autoscale = &scaleCfg
	}
	if faults {
		cfg.Sim.DupProb, cfg.Faults = 0.05, sim.UniformPlan(0.05, 0.5)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The case's chunk size (0 keeps the default).
	f.P3 = core.NewP3(f.Dep, core.Options{CommitWorkers: workers, ChunkSize: c.chunk})
	f.Env.InstallFaults(cfg.Faults) // an injector to arm the point on
	n := max(c.txns, 12)
	r := &crashRun{f: f, k: k}
	f.Dep.Commits.Subscribe(func(n core.CommitNotice) int64 {
		r.sent.Add(int64(len(n.Txns)))
		return 0
	})
	rnd := sim.NewRand(int64(n))
	if scale > 0 {
		f.Env.Faults().CrashAt(c.point, c.n)
		f.Start()
	}
	for i := 0; i < n; i++ {
		obj, bundles := txn(rnd, i, 4)
		if c.provOnly {
			obj = core.FileObject{}
		} else {
			r.objs = append(r.objs, obj)
		}
		if err := f.P3.Commit(obj, bundles); err != nil {
			t.Fatal(err)
		}
		if i == 0 { // a sample of what the items must hold
			if r.attrs, err = core.ItemsForBundles(f.Dep.Store, bundles); err != nil {
				t.Fatal(err)
			}
		}
		r.uuids = append(r.uuids, bundles[0].Ref.UUID, bundles[len(bundles)-1].Ref.UUID)
		if i == n/2-1 && scale == 0 {
			settle(t, r)
			if _, err := f.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	key := fmt.Sprint(k, n, c.provOnly)
	if _, ok := twins[key]; !ok && twins != nil {
		tw := crashFabric(t, crashCase{txns: c.txns, provOnly: c.provOnly}, k, workers, false, 0, nil)
		settle(t, tw)
		tw.f.Dep.Settle()
		twins[key] = twin{digest(t, tw.f, tw.uuids), tw.f.Dep.DB.ItemCount()}
	}
	r.twin = twins[key]
	return r
}

// crashLeg is one fabric a case runs on: width, daemons, faults, live clock.
type crashLeg struct {
	name       string
	k, workers int
	faults     bool
	scale      float64
}

// TestCrashRecovery kills each process of a P3 fabric at every crash point
// it can reach and restarts the fabric with Recover alone, grouped by the
// process that dies. The commit daemon's points run at K=1 and K=4 with one
// daemon and with five, and on a started fabric; the others at K=1 with one
// and K=4 with five (the resharder takes K to 2: a grow and a shrink), the
// resharder's again under faults. After Recover every case must hold what
// the never-crashed twin holds, audit clean, leave no work behind, and leave
// nothing for a second Recover.
func TestCrashRecovery(t *testing.T) {
	k1, k4 := crashLeg{name: "k=1", k: 1, workers: 1}, crashLeg{name: "k=4", k: 4, workers: 5}
	groups := []struct {
		name  string
		cases []crashCase
		legs  []crashLeg
	}{
		{"daemon-k=1", daemonCases, []crashLeg{{name: "workers=1", k: 1, workers: 1}, {name: "workers=5", k: 1, workers: 5}}},
		{"daemon-k=4", daemonCases, []crashLeg{{name: "workers=1", k: 4, workers: 1}, {name: "workers=5", k: 4, workers: 5}}},
		{"daemon-live", daemonCases, []crashLeg{{name: "k=4", k: 4, workers: 5, scale: 400}}},
		{"client", clientCases, []crashLeg{k1, k4}},
		{"reshard", reshardCases, []crashLeg{k1, k4}},
		{"reshard-faults", reshardCases, []crashLeg{{name: "k=4", k: 4, workers: 5, faults: true}}},
		{"translog", checkpointCases, []crashLeg{k1, k4}},
		{"autoscale", controllerCases, []crashLeg{k1, k4}},
	}
	twins := make(map[string]twin)
	for _, g := range groups {
		t.Run(g.name, func(t *testing.T) {
			for _, c := range g.cases {
				name := string(c.point)
				if c.provOnly {
					name += "+prov-only"
				}
				t.Run(name, func(t *testing.T) {
					for _, l := range g.legs {
						t.Run(l.name, func(t *testing.T) { crashRow(t, c, l, twins) })
					}
				})
			}
		})
	}
}

// crashRow runs one case on one leg: arm, drive, check, Recover, and
// checkRecovered.
func crashRow(t *testing.T, c crashCase, l crashLeg, twins map[string]twin) {
	r := crashFabric(t, c, l.k, l.workers, l.faults, l.scale, twins)
	f := r.f
	defer f.Close()
	if l.scale > 0 { // wait for the point to fire and the pool to commit every item
		for deadline := time.Now().Add(20 * time.Second); len(f.Env.Faults().ArmedCrashes()) != 0 || f.Dep.DB.ItemCount() != r.twin.items; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("armed %v, %d of %d items in", f.Env.Faults().ArmedCrashes(), f.Dep.DB.ItemCount(), r.twin.items)
			}
		}
	} else {
		f.Env.Faults().CrashAt(c.point, c.n)
		c.drive(t, r)
		if left := f.Env.Faults().ArmedCrashes(); len(left) != 0 {
			t.Fatalf("%v armed, its site never reached", left)
		}
		if c.crashed != nil {
			c.crashed(t, r)
		}
	}

	r.puts = f.Env.Meter().Usage().OpsByKind["sdb.BatchPutAttributes"]
	rep, err := f.Recover(t.Context())
	if err != nil {
		t.Fatalf("Recover: %v (%+v)", err, rep)
	}
	if c.recovered != nil {
		c.recovered(t, r, rep)
	}
	checkRecovered(t, r)
	if u, st := f.Env.Meter().Usage(), f.Dep.Res.Stats().Totals(); l.faults && (u.Faults == 0 || st.Retries == 0) {
		t.Errorf("%d faults injected, %d retried: the plan did not run", u.Faults, st.Retries)
	}
}

// checkRecovered is what every recovered fabric must show: oracle.Check
// against the never-crashed twin's item count and the first transaction's
// items, with the fabric's log
// checkpointed as the sequencer's next tick would; the twin's reads; no
// point left armed; and nothing for a second Recover to do.
func checkRecovered(t *testing.T, r *crashRun) {
	t.Helper()
	f := r.f
	if _, err := f.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rep, err := oracle.Check(f.Dep, oracle.Expect{Backend: core.BackendSDB, Items: r.twin.items, Objects: r.objs, Attrs: r.attrs, P3: f.P3, Log: f.Log})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("oracle: %v", v)
	}
	if got := digest(t, f, r.uuids); got != r.twin.digest {
		t.Error("digest differs from the never-crashed twin's")
	}
	if left := f.Env.Faults().ArmedCrashes(); len(left) != 0 {
		t.Errorf("%v still armed", left)
	}
	epoch := f.Dep.DB.Directory().Epoch()
	again, err := f.Recover(t.Context())
	if err != nil || again.Resumed || again.Outstanding != 0 || f.Dep.DB.Directory().Epoch() != epoch {
		t.Errorf("a second Recover: %+v err %v, epoch %d -> %d", again, err, epoch, f.Dep.DB.Directory().Epoch())
	}
	if f.Ctl != nil && f.Ctl.Status().Grows+f.Ctl.Status().Shrinks != 0 {
		t.Errorf("a second Recover's controller decided again: %+v", f.Ctl.Status())
	}
}

// TestFailedDeleteStrandsNothing: a DeleteMessageBatch that fails outright,
// in a group's cleanup and again in the acknowledgement of the committed
// transactions' redelivered packets, never leaves a packet on the WAL behind
// its transaction's acknowledged header, where a restarted daemon would
// assemble a headless transaction that never completes: after Recover the WAL
// is empty, nothing is pending, and every item is in.
func TestFailedDeleteStrandsNothing(t *testing.T) {
	boom := errors.New("boom")
	for seed := int64(1); seed <= 4; seed++ {
		f, err := New(Config{Sim: sim.Config{Seed: seed}, Topology: core.Topology{WALShards: 1, DBShards: 1}, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		f.P3 = core.NewP3(f.Dep, core.Options{CommitWorkers: 1, ChunkSize: 64}) // about 20 packets a transaction
		inj := f.Env.InstallFaults(nil)
		rnd, want := sim.NewRand(seed), oracle.Expect{Backend: core.BackendSDB}
		for i := 0; i < 4; i++ {
			obj, bundles := txn(rnd, i, 12)
			if err := f.P3.Commit(obj, bundles); err != nil {
				t.Fatal(err)
			}
			want.Items += len(bundles)
			want.Objects = append(want.Objects, obj)
		}
		wal := f.Dep.WAL.Shard(0)
		// The group's cleanup, then the redelivered packets' acknowledgement.
		for round := 0; round < 2; round++ {
			inj.FailNextOp(wal.Name(), "sqs.DeleteMessageBatch", boom)
			if _, err := f.P3.CommitOnce(); !errors.Is(err, boom) {
				t.Fatalf("seed %d round %d: commit round returned %v, want the failed delete", seed, round, err)
			}
			f.Env.Clock().Sleep(f.Dep.WAL.Visibility())
		}
		recoverClean(t, seed, f, want)
	}
	// Six two-packet transactions in one group: their six receipts and four
	// of their headers share the first batch, the other two headers a batch
	// of their own. The first batch fails, sent by a daemon on one connection
	// so the batches go in order and a header batch would follow it: neither
	// header it holds may go while its transaction's other packet stays.
	for seed := int64(1); seed <= 4; seed++ {
		f, err := New(Config{Sim: sim.Config{Seed: seed}, Topology: core.Topology{WALShards: 1, DBShards: 1}, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		d := core.NewP3(f.Dep, core.Options{ProvConns: 1, ChunkSize: 64}) // two packets a transaction
		inj := f.Env.InstallFaults(nil)
		rnd, want := sim.NewRand(seed), oracle.Expect{Backend: core.BackendSDB}
		for i := 0; i < 6; i++ {
			obj, bundles := txn(rnd, i, 2)
			before := f.Dep.WAL.Len()
			if err := d.Commit(obj, bundles); err != nil {
				t.Fatal(err)
			}
			if n := f.Dep.WAL.Len() - before; n != 2 {
				t.Fatalf("a transaction of %d packets, want 2", n)
			}
			want.Items += len(bundles)
			want.Objects = append(want.Objects, obj)
		}
		inj.FailNextOp(f.Dep.WAL.Shard(0).Name(), "sqs.DeleteMessageBatch", boom)
		if _, err := d.CommitOnce(); !errors.Is(err, boom) {
			t.Fatalf("seed %d: commit round returned %v, want the failed delete", seed, err)
		}
		if left := f.Dep.WAL.Len(); left != 12 {
			t.Fatalf("seed %d: %d packets left on the WAL after the failed first batch, want all 12", seed, left)
		}
		recoverClean(t, seed, f, want)
	}
}

// TestRecoverWaitsOutTheLongestGrant: a slow group raises P3's grant past
// the WAL's own visibility timeout, and the daemon then dies mid-commit with
// a transaction's packets held under that grant. Recover sleeps the longest
// grant, not the WAL's own timeout, so the rebuilt daemon receives the
// packets again and commits the transaction exactly once.
func TestRecoverWaitsOutTheLongestGrant(t *testing.T) {
	f, err := New(Config{Sim: sim.Config{Seed: 5}, Topology: core.Topology{WALShards: 1, DBShards: 1}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rnd, want := sim.NewRand(5), oracle.Expect{Backend: core.BackendSDB}
	commit := func(txns, items int) {
		for i := 0; i < txns; i++ {
			obj, bundles := txn(rnd, len(want.Objects), items)
			if err := f.P3.Commit(obj, bundles); err != nil {
				t.Fatal(err)
			}
			want.Items += len(bundles)
			want.Objects = append(want.Objects, obj)
		}
	}
	commit(32, 24) // the slow group
	if err := f.P3.Settle(); err != nil {
		t.Fatal(err)
	}
	commit(1, 4)
	f.Env.InstallFaults(nil).CrashAt(core.CrashAfterDB, 0)
	if err := f.P3.Settle(); !errors.Is(err, sim.ErrCrashed) {
		t.Fatalf("settle: %v, want the daemon's crash", err)
	}
	grant := f.Dep.WAL.Visibility()
	if grant <= sqs.DefaultVisibility {
		t.Fatalf("the WAL reports a %v visibility, want the slow group's longer grant", grant)
	}
	copies := f.Env.Meter().Usage().OpsByKind["s3.COPY"]
	start := f.Env.Now()
	if _, err := f.Recover(t.Context()); err != nil {
		t.Fatal(err)
	}
	if slept := f.Env.Now() - start; slept < grant {
		t.Errorf("Recover took %v, under the %v grant", slept, grant)
	}
	if n := f.Env.Meter().Usage().OpsByKind["s3.COPY"] - copies; n != 1 {
		t.Errorf("the crashed transaction was copied %d times after Recover, want once", n)
	}
	recoverClean(t, 5, f, want)
}

// recoverClean recovers f, checks it with the oracle against want and the
// recovered P3, and closes it.
func recoverClean(t *testing.T, seed int64, f *Fabric, want oracle.Expect) {
	t.Helper()
	defer f.Close()
	if _, err := f.Recover(t.Context()); err != nil {
		t.Fatal(err)
	}
	want.P3 = f.P3
	rep, err := oracle.Check(f.Dep, want)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("seed %d: oracle: %v", seed, v)
	}
}
