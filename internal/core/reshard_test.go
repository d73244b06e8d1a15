package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"
	"time"

	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// reshardWorkload commits the deterministic pool workload through P3 on a
// K-way fabric and settles it, returning the deployment, the protocol and
// the object uuids whose provenance the digests cover.
func reshardWorkload(t *testing.T, k int, txns, perTxn int) (*Deployment, *P3, []uuid.UUID) {
	t.Helper()
	dep := newShardedDep(t, sim.Eventual, k)
	p := NewP3(dep, Options{CommitWorkers: 2})
	objs, bundles := poolTxns(99, txns, perTxn)
	var uuids []uuid.UUID
	for i := range objs {
		if err := p.Commit(objs[i], bundles[i]); err != nil {
			t.Fatal(err)
		}
		for _, b := range bundles[i] {
			if b.Ref.Version == 1 {
				uuids = append(uuids, b.Ref.UUID)
			}
		}
	}
	if err := p.Settle(); err != nil {
		t.Fatal(err)
	}
	dep.Settle()
	return dep, p, uuids
}

// provDigest hashes ReadProvenance over every workload uuid in order — the
// byte-identity check every migration state must preserve.
func provDigest(t *testing.T, dep *Deployment, uuids []uuid.UUID) string {
	t.Helper()
	h := sha256.New()
	for _, u := range uuids {
		bundles, err := ReadProvenance(dep, BackendSDB, u)
		if err != nil {
			t.Fatalf("ReadProvenance(%s): %v", u, err)
		}
		h.Write(prov.EncodeBundles(bundles))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestReshardGrowCleanRun is the no-crash baseline: a K=1 fabric grows to
// K=4 under no load, every item lands on exactly its new home, reads stay
// byte-identical, and the control object ends stable.
func TestReshardGrowCleanRun(t *testing.T) {
	const txns, perTxn = 16, 5
	dep, _, uuids := reshardWorkload(t, 1, txns, perTxn)
	before := provDigest(t, dep, uuids)

	stats, err := dep.Reshard(context.Background(), Topology{WALShards: 4, DBShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CopiedItems == 0 {
		t.Fatal("grow copied nothing")
	}
	if stats.GCItems != stats.CopiedItems {
		t.Errorf("GC removed %d stale copies, copied %d", stats.GCItems, stats.CopiedItems)
	}
	if dep.Topo.DBShards != 4 || dep.DB.Shards() != 4 || dep.WAL.Shards() != 4 {
		t.Fatalf("topology after reshard: %+v (%d/%d live)", dep.Topo, dep.DB.Shards(), dep.WAL.Shards())
	}
	dep.Settle()
	if got := provDigest(t, dep, uuids); got != before {
		t.Error("ReadProvenance digest changed across the reshard")
	}
	if got, want := dep.DB.ItemCount(), txns*perTxn; got != want {
		t.Fatalf("items = %d, want %d", got, want)
	}
	mis, dup, err := AuditFabric(dep)
	if err != nil || mis != 0 || dup != 0 {
		t.Fatalf("audit: misplaced=%d duplicates=%d err=%v", mis, dup, err)
	}
	c, ok, err := dep.ReadControl()
	if err != nil || !ok || c.State != ControlStable {
		t.Fatalf("control after reshard: %+v ok=%v err=%v", c, ok, err)
	}
	if c.DBDir.Active.Shards != 4 || c.DBDir.Target != nil {
		t.Fatalf("persisted DB directory wrong: %+v", c.DBDir)
	}
	// Every new domain shard actually owns data.
	for s := 0; s < 4; s++ {
		if dep.DB.Shard(s).ItemCount() == 0 {
			t.Errorf("domain shard %d empty after 1->4 reshard", s)
		}
	}
}

// TestReadControlFailureIsNotAbsence: ReadControl reports ok=false without
// an error only for a key that is missing (or not yet visible); any other
// failed GET after a completed reshard is returned, not taken for "no
// reshard ever ran".
func TestReadControlFailureIsNotAbsence(t *testing.T) {
	dep, _, _ := reshardWorkload(t, 1, 4, 3)
	if _, ok, err := dep.ReadControl(); ok || err != nil {
		t.Fatalf("before any reshard: ok=%v err=%v, want no control object and no error", ok, err)
	}
	if _, err := dep.Reshard(context.Background(), Topology{WALShards: 2, DBShards: 2}); err != nil {
		t.Fatal(err)
	}
	dep.Settle()
	boom := errors.New("s3 unavailable")
	inj := dep.Env.InstallFaults(nil)
	inj.FailOp("s3", "s3.GET", boom)
	if c, ok, err := dep.ReadControl(); !errors.Is(err, boom) || ok {
		t.Fatalf("ReadControl under a failing GET: %+v ok=%v err=%v, want boom", c, ok, err)
	}
	inj.ClearOp("s3", "s3.GET")
	if c, ok, err := dep.ReadControl(); err != nil || !ok || c.State != ControlStable {
		t.Fatalf("ReadControl once the GET heals: %+v ok=%v err=%v", c, ok, err)
	}
}

// TestReadControlRejectsCorruptRecords stores control records no resharder
// writes on a stable K=4 fabric: each must make ReadControl and
// ResumeReshard return an error and leave the fabric at K=4, never resume
// toward the width the corrupt record names.
func TestReadControlRejectsCorruptRecords(t *testing.T) {
	dep, _, _ := reshardWorkload(t, 4, 4, 3)
	for _, body := range []string{
		`{}`,
		`{"state":"bogus","topology":{"WALShards":2,"DBShards":2}}`,
		`{"state":"migrating","topology":{"WALShards":4,"DBShards":4}}`,
		`{"state":"stable","topology":{"WALShards":4,"DBShards":65}}`,
		`{"state":"migrating","topology":{"WALShards":4,"DBShards":4},"target":{"WALShards":0,"DBShards":2}}`,
	} {
		if err := dep.Store.Put(FabricControlKey, []byte(body), nil); err != nil {
			t.Fatal(err)
		}
		dep.Settle()
		if c, ok, err := dep.ReadControl(); err == nil || ok {
			t.Errorf("ReadControl(%s) = %+v ok=%v err=%v, want an error", body, c, ok, err)
		}
		if _, resumed, err := ResumeReshard(context.Background(), dep); err == nil || resumed {
			t.Errorf("ResumeReshard on %s: resumed=%v err=%v, want an error", body, resumed, err)
		}
		if got := dep.activeTopology(); got != (Topology{WALShards: 4, DBShards: 4}) || dep.Topo != got {
			t.Fatalf("after %s: active %+v, Topo %+v, want K=4", body, got, dep.Topo)
		}
	}
}

// TestReshardShrinkMigratesWAL pins the merge path: a 4->2 shrink with
// transactions still sitting on the decommissioned WAL queues must stream
// those messages to their new homes, and the commit daemons must then land
// every transaction exactly once.
func TestReshardShrinkMigratesWAL(t *testing.T) {
	const txns, perTxn = 12, 4
	dep := newShardedDep(t, sim.Eventual, 4)
	p := NewP3(dep, Options{CommitWorkers: 2})
	objs, bundles := poolTxns(7, txns, perTxn)
	var uuids []uuid.UUID
	for i := range objs {
		if err := p.Commit(objs[i], bundles[i]); err != nil {
			t.Fatal(err)
		}
		for _, b := range bundles[i] {
			if b.Ref.Version == 1 {
				uuids = append(uuids, b.Ref.UUID)
			}
		}
	}
	// Deliberately no settle: the WAL still holds every packet.
	if dep.WAL.Len() == 0 {
		t.Fatal("expected logged packets before the shrink")
	}
	stats, err := dep.Reshard(context.Background(), Topology{WALShards: 2, DBShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WALMigrated == 0 {
		t.Fatal("shrink moved no WAL messages off the decommissioned queues")
	}
	if dep.WAL.Shards() != 2 || dep.DB.Shards() != 2 {
		t.Fatalf("live shards after shrink: wal=%d db=%d", dep.WAL.Shards(), dep.DB.Shards())
	}
	if err := p.Settle(); err != nil {
		t.Fatal(err)
	}
	dep.Settle()
	if got, want := dep.DB.ItemCount(), txns*perTxn; got != want {
		t.Fatalf("items = %d, want exactly %d (lost or duplicated)", got, want)
	}
	if n := p.PendingTxns(); n != 0 {
		t.Fatalf("%d transactions still pending after shrink settle", n)
	}
	mis, dup, err := AuditFabric(dep)
	if err != nil || mis != 0 || dup != 0 {
		t.Fatalf("audit after shrink: misplaced=%d duplicates=%d err=%v", mis, dup, err)
	}
	// The shrunk fabric reads back byte-identically to a static K=2 run of
	// the same workload.
	refDep := newShardedDep(t, sim.Eventual, 2)
	refP := NewP3(refDep, Options{CommitWorkers: 2})
	refObjs, refBundles := poolTxns(7, txns, perTxn)
	for i := range refObjs {
		if err := refP.Commit(refObjs[i], refBundles[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := refP.Settle(); err != nil {
		t.Fatal(err)
	}
	refDep.Settle()
	if provDigest(t, dep, uuids) != provDigest(t, refDep, uuids) {
		t.Error("shrunk fabric diverged from static K=2 deployment")
	}
}

// TestReshardUnderIngest drives commits *during* the migration on a manual
// clock: a writer keeps committing while Reshard runs, and the settled
// fabric must hold exactly one copy of every item, byte-identical to a
// static K=4 run.
func TestReshardUnderIngest(t *testing.T) {
	const txns, perTxn = 24, 4
	dep := newShardedDep(t, sim.Eventual, 1)
	p := NewP3(dep, Options{CommitWorkers: 2})
	objs, bundles := poolTxns(55, txns, perTxn)
	var uuids []uuid.UUID
	for i := range objs {
		for _, b := range bundles[i] {
			if b.Ref.Version == 1 {
				uuids = append(uuids, b.Ref.UUID)
			}
		}
	}
	// First half committed and settled before the reshard.
	half := txns / 2
	for i := 0; i < half; i++ {
		if err := p.Commit(objs[i], bundles[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Settle(); err != nil {
		t.Fatal(err)
	}
	// Second half races the reshard: a background writer commits while the
	// migration copies, cuts over and GCs.
	done := make(chan error, 1)
	go func() {
		for i := half; i < txns; i++ {
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
	if _, err := dep.Reshard(context.Background(), Topology{WALShards: 4, DBShards: 4}); err != nil {
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
		t.Fatalf("audit under ingest: misplaced=%d duplicates=%d err=%v", mis, dup, err)
	}
	// Byte-identity against a static K=4 fabric.
	refDep := newShardedDep(t, sim.Eventual, 4)
	refP := NewP3(refDep, Options{CommitWorkers: 2})
	refObjs, refBundles := poolTxns(55, txns, perTxn)
	for i := range refObjs {
		if err := refP.Commit(refObjs[i], refBundles[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := refP.Settle(); err != nil {
		t.Fatal(err)
	}
	refDep.Settle()
	if provDigest(t, dep, uuids) != provDigest(t, refDep, uuids) {
		t.Error("resharded-under-ingest fabric diverged from static K=4 deployment")
	}
}

// TestResumeReshardSurvivesLostControl pins the recovery fallback the
// crash matrix cannot force deterministically: if the control-object read
// lies (stale replica serving a previous reshard's "stable" state, or the
// object lost outright), an open double-write window is authoritative —
// ResumeReshard must roll it forward from the in-memory directories
// instead of abandoning the window forever.
func TestResumeReshardSurvivesLostControl(t *testing.T) {
	dep, _, uuids := reshardWorkload(t, 1, 10, 4)
	// A completed first reshard leaves a genuine "stable" control object.
	if _, err := dep.Reshard(context.Background(), Topology{WALShards: 2, DBShards: 2}); err != nil {
		t.Fatal(err)
	}
	dep.Settle()
	want := provDigest(t, dep, uuids)

	// Second reshard crashes at pre-copy; then the control object is lost.
	dep.Env.InstallFaults(nil).CrashAt(ReshardCrashPreCopy, 0)
	if _, err := dep.Reshard(context.Background(), Topology{WALShards: 4, DBShards: 4}); !errors.Is(err, sim.ErrCrashed) {
		t.Fatalf("crash did not fire: %v", err)
	}
	if err := dep.Store.Delete(FabricControlKey); err != nil {
		t.Fatal(err)
	}
	dep.Settle() // the delete is visible: ReadControl now genuinely finds nothing

	stats, resumed, err := ResumeReshard(context.Background(), dep)
	if err != nil || !resumed {
		t.Fatalf("resume with lost control: resumed=%v err=%v", resumed, err)
	}
	if stats.To.DBShards != 4 || dep.DB.Directory().Migrating() || dep.Topo.DBShards != 4 {
		t.Fatalf("fallback recovery did not converge: %+v topo=%+v", stats, dep.Topo)
	}
	dep.Settle()
	if got := provDigest(t, dep, uuids); got != want {
		t.Error("digest diverged across lost-control recovery")
	}
	mis, dup, err := AuditFabric(dep)
	if err != nil || mis != 0 || dup != 0 {
		t.Fatalf("audit: misplaced=%d duplicates=%d err=%v", mis, dup, err)
	}
	if c, ok, _ := dep.ReadControl(); !ok || c.State != ControlStable {
		t.Fatalf("control not re-persisted stable: %+v ok=%v", c, ok)
	}
}

// TestReshardConcurrentRunsRefused pins the run lock: a second resharder
// racing an open one is refused with ErrReshardInFlight, never a panic,
// and a redirect of a crashed migration to a different width is refused
// the same way.
func TestReshardConcurrentRunsRefused(t *testing.T) {
	dep, _, _ := reshardWorkload(t, 1, 8, 4)
	dep.Env.InstallFaults(nil).CrashAt(ReshardCrashPreCutover, 0)
	if _, err := dep.Reshard(context.Background(), Topology{WALShards: 2, DBShards: 2}); !errors.Is(err, sim.ErrCrashed) {
		t.Fatalf("crash did not fire: %v", err)
	}
	// Redirecting the open migration to another width is refused.
	if _, err := dep.Reshard(context.Background(), Topology{WALShards: 4, DBShards: 4}); !errors.Is(err, ErrReshardInFlight) {
		t.Fatalf("redirect of open migration: %v, want ErrReshardInFlight", err)
	}
	// Recovery toward the original target still works.
	if _, resumed, err := ResumeReshard(context.Background(), dep); err != nil || !resumed {
		t.Fatalf("resume: resumed=%v err=%v", resumed, err)
	}
	if dep.Topo.DBShards != 2 {
		t.Fatalf("topo = %+v", dep.Topo)
	}
}

// TestReshardCopiesVisibleAtCutover pins the pre-cutover visibility
// barrier: with a pathologically long eventual-consistency window, items a
// reshard copies to their new homes must already be observable there the
// moment cutover removes the old-home fallback — reads issued immediately
// after Reshard returns, with no settle, must see every item, exactly as a
// static deployment (where the items are long-settled) would.
func TestReshardCopiesVisibleAtCutover(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Consistency = sim.Eventual
	cfg.StalenessMean = time.Hour
	dep := NewShardedDeployment(sim.NewEnv(cfg), Topology{WALShards: 1, DBShards: 1})
	// Populate the domain directly (the full commit pipeline is itself not
	// built for hour-long staleness); what matters here is old, settled
	// items confronting freshly copied replicas.
	_, allBundles := poolTxns(3, 12, 4)
	var uuids []uuid.UUID
	var specs []ItemSpec
	for _, bundles := range allBundles {
		for _, b := range bundles {
			if b.Ref.Version == 1 {
				uuids = append(uuids, b.Ref.UUID)
			}
			spec := ItemSpec{Ref: b.Ref, Type: "file", Name: b.Name}
			if b.Type == prov.Process {
				spec.Type = "proc"
			}
			specs = append(specs, spec)
		}
	}
	if err := PopulateItems(dep.DB, specs); err != nil {
		t.Fatal(err)
	}
	dep.Env.Clock().Advance(48 * time.Hour) // the originals are long-settled
	before := provDigest(t, dep, uuids)

	if _, err := dep.Reshard(context.Background(), Topology{WALShards: 4, DBShards: 4}); err != nil {
		t.Fatal(err)
	}
	// No settle: the fresh copies' windows must have been waited out while
	// the union-read still covered the old homes.
	if got := provDigest(t, dep, uuids); got != before {
		t.Error("items transiently invisible right after cutover (visibility barrier broken)")
	}
}
