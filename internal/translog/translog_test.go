package translog

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/cloud/store"
	"passcloud/internal/core"
	"passcloud/internal/merkle"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// txnSpec is one synthetic transaction: a process bundle plus a short chain
// of file versions, with the closure root pinned in the object metadata the
// way the Merkle-verifying workloads do.
type txnSpec struct {
	obj     core.FileObject
	bundles []prov.Bundle
}

// makeTxns builds n deterministic transactions of per bundles each.
func makeTxns(seed int64, n, per int) []txnSpec {
	rnd := sim.NewRand(seed)
	pad := strings.Repeat("e", 100)
	out := make([]txnSpec, 0, n)
	for t := 0; t < n; t++ {
		procRef := prov.Ref{UUID: uuid.New(rnd), Version: 1}
		fileUUID := uuid.New(rnd)
		path := fmt.Sprintf("mnt/log/%05d", t)
		bundles := []prov.Bundle{{
			Ref: procRef, Type: prov.Process, Name: "logprog",
			Records: []prov.Record{
				{Attr: prov.AttrType, Value: "proc"},
				{Attr: prov.AttrName, Value: "logprog"},
				{Attr: prov.AttrEnv, Value: pad},
			},
		}}
		var last prov.Ref
		for v := 1; v < per; v++ {
			ref := prov.Ref{UUID: fileUUID, Version: v}
			records := []prov.Record{
				{Attr: prov.AttrType, Value: "file"},
				{Attr: prov.AttrName, Value: path},
				{Attr: prov.AttrInput, Xref: procRef},
			}
			if v > 1 {
				records = append(records, prov.Record{Attr: prov.AttrPrevVer, Xref: last})
			}
			bundles = append(bundles, prov.Bundle{Ref: ref, Type: prov.File, Name: path, Records: records})
			last = ref
		}
		out = append(out, txnSpec{
			obj: core.FileObject{
				Path: path, Size: 2048, Ref: last,
				Digest: core.ClosureRoot(bundles).String(),
			},
			bundles: bundles,
		})
	}
	return out
}

// newFabric builds a deterministic manual-clock deployment with an attached
// sequencer.
func newFabric(t testing.TB, seed int64, k int) (*sim.Env, *core.Deployment, *core.P3, *Log) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	env := sim.NewEnv(cfg)
	dep := core.NewShardedDeployment(env, core.Topology{WALShards: k, DBShards: k})
	// One connection per pool: leaves hash the simulated commit time, and
	// with parallel puts and copies the manual clock's total depends on
	// goroutine interleaving, so same-seed twins would disagree on a root.
	p3 := core.NewP3(dep, core.Options{DataConns: 1, ProvConns: 1})
	l := New(env, dep.Store, "")
	l.Attach(dep.Commits)
	return env, dep, p3, l
}

func commitAll(t testing.TB, p3 *core.P3, set []txnSpec) {
	t.Helper()
	for i, tx := range set {
		if err := p3.Commit(tx.obj, tx.bundles); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if err := p3.Settle(); err != nil {
		t.Fatal(err)
	}
}

// settleReads waits out the store's eventual-consistency window so cold
// reads (Open, audits) observe everything written.
func settleReads(env *sim.Env) {
	env.Clock().Sleep(sim.DefaultStalenessMean * 20)
}

func TestSequencerLogsEveryCommit(t *testing.T) {
	env, _, p3, l := newFabric(t, 11, 1)
	set := makeTxns(11, 12, 3)
	commitAll(t, p3, set)

	if got := l.Size(); got != len(set) {
		t.Fatalf("log holds %d leaves, committed %d transactions", got, len(set))
	}
	head, err := l.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if head.TreeSize != len(set) {
		t.Fatalf("head covers %d leaves, want %d", head.TreeSize, len(set))
	}
	if !head.Verify(l.Public()) {
		t.Fatal("signed head does not verify")
	}
	digests := make(map[string]bool, len(set))
	for _, tx := range set {
		digests[tx.obj.Digest] = true
	}
	for _, lf := range l.Leaves() {
		if len(lf.Items) == 0 {
			t.Fatalf("leaf %d has no items", lf.Index)
		}
		if !digests[lf.Closure] {
			t.Fatalf("leaf %d closure %q is not one of the committed roots", lf.Index, lf.Closure)
		}
		txn, err := uuid.Parse(lf.Txn)
		if err != nil {
			t.Fatal(err)
		}
		p, err := l.ProveInclusion(txn)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Verify() {
			t.Fatalf("inclusion proof for leaf %d does not verify", lf.Index)
		}
	}
	u := env.Meter().Usage()
	if u.LogAppends != int64(len(set)) {
		t.Fatalf("meter counted %d log appends, want %d", u.LogAppends, len(set))
	}
	if u.LogHeads == 0 || u.LogProofs == 0 {
		t.Fatalf("meter heads=%d proofs=%d, want both nonzero", u.LogHeads, u.LogProofs)
	}
}

func TestIngestIsIdempotent(t *testing.T) {
	env := sim.NewEnv(sim.DefaultConfig())
	dep := core.NewDeployment(env)
	l := New(env, dep.Store, "")
	rnd := sim.NewRand(3)
	n := core.CommitNotice{
		Seq:     1,
		Txns:    []uuid.UUID{uuid.New(rnd)},
		Digests: []string{"d0"},
		Items:   []core.NoticeItem{{Name: "item_1", Attrs: []sdb.Attr{{Name: "a", Value: "1"}}}},
	}
	n.Items[0].Txn = n.Txns[0]
	l.Ingest(n)
	l.Ingest(n) // redelivered group republishes
	if l.Size() != 1 {
		t.Fatalf("redelivered notice grew the log to %d leaves", l.Size())
	}
}

func TestOpenRestoresProofsAndCursor(t *testing.T) {
	env, dep, p3, l := newFabric(t, 21, 2)
	set := makeTxns(21, 10, 3)
	commitAll(t, p3, set)
	head, err := l.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	settleReads(env)

	o, err := Open(env, dep.Store, "")
	if err != nil {
		t.Fatal(err)
	}
	if o.PersistedSize() != head.TreeSize || o.Size() != head.TreeSize {
		t.Fatalf("reopened sizes %d/%d, want %d", o.PersistedSize(), o.Size(), head.TreeSize)
	}
	for _, lf := range o.Leaves() {
		txn, _ := uuid.Parse(lf.Txn)
		p, err := o.ProveInclusion(txn)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Verify() {
			t.Fatalf("reopened log: inclusion proof for leaf %d fails", lf.Index)
		}
	}
	// A fresh checkpoint on the reopened log is a no-op that returns the
	// same head (every stage cursor restored).
	h2, err := o.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if h2 != head {
		t.Fatalf("idempotent checkpoint rewrote the head: %+v != %+v", h2, head)
	}
}

// TestProofsSurviveLiveReshard pins the epoch-independence of tree heads: a
// head signed before a 1→4 reshard stays consistent with heads signed after
// it, inclusion proofs for pre-reshard commits verify unchanged, and the
// auditor is clean across the grown fabric.
func TestProofsSurviveLiveReshard(t *testing.T) {
	env, dep, p3, l := newFabric(t, 31, 1)
	set := makeTxns(31, 14, 3)
	commitAll(t, p3, set[:7])
	h1, err := l.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Reshard(context.Background(), core.Topology{WALShards: 4, DBShards: 4}); err != nil {
		t.Fatal(err)
	}
	commitAll(t, p3, set[7:])
	h2, err := l.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	leaves := l.Leaves()
	if leaves[0].Epoch == leaves[len(leaves)-1].Epoch {
		t.Fatalf("expected the cutover to advance the recorded epoch (both %d)", leaves[0].Epoch)
	}
	proof := merkle.LogConsistency(l.hashes[:h2.TreeSize], h1.TreeSize)
	r1, _ := h1.RootDigest()
	r2, _ := h2.RootDigest()
	if !merkle.VerifyLogConsistency(h1.TreeSize, h2.TreeSize, r1, r2, proof) {
		t.Fatal("pre-reshard head is not consistent with post-reshard head")
	}
	for _, lf := range leaves {
		txn, _ := uuid.Parse(lf.Txn)
		p, err := l.ProveInclusion(txn)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Verify() {
			t.Fatalf("leaf %d inclusion fails after reshard", lf.Index)
		}
	}
	settleReads(env)
	rep, err := Audit(dep, l, AuditOptions{Witness: &h1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("audit across reshard not clean: %s\nfailures: %v\ndivergences: %v",
			rep, rep.ProofFailures, rep.Divergences)
	}
	if rep.InclusionVerified != len(set) {
		t.Fatalf("audited %d inclusion proofs, want %d", rep.InclusionVerified, len(set))
	}
}

func TestAuditDetectsTamperAndDrop(t *testing.T) {
	env, dep, p3, l := newFabric(t, 41, 2)
	set := makeTxns(41, 10, 3)
	commitAll(t, p3, set)
	head, err := l.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	settleReads(env)

	// Clean control first: zero false positives.
	rep, err := Audit(dep, l, AuditOptions{Witness: &head})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean fabric audits dirty: failures=%v divergences=%v", rep.ProofFailures, rep.Divergences)
	}

	// Negative control 1: rewrite one persisted item behind the fabric's
	// back, directly on its home shard.
	victim := l.Leaves()[3].Items[0].Name
	dom := dep.DB.Shard(dep.DB.ShardForItem(victim))
	it, err := dom.GetAttributes(victim)
	if err != nil {
		t.Fatal(err)
	}
	attrs := append([]sdb.Attr(nil), it.Attrs...)
	attrs[0].Value += "-rewritten"
	if err := dom.PutAttributes(sdb.PutRequest{Item: victim, Attrs: attrs, Replace: true}); err != nil {
		t.Fatal(err)
	}
	settleReads(env)
	rep, err = Audit(dep, l, AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tampered := 0
	for _, d := range rep.Divergences {
		if d.Kind == DivTampered && d.Item == victim {
			tampered++
		}
	}
	if tampered == 0 {
		t.Fatalf("rewritten bundle not flagged; divergences: %v", rep.Divergences)
	}

	// Negative control 2: excise a commit from the log (malicious log
	// server). The re-signed history cannot prove consistency against the
	// witnessed head, and the excised transaction's items turn unlogged.
	droppedTxn, _ := uuid.Parse(l.Leaves()[5].Txn)
	droppedItems := l.Leaves()[5].Items
	if !l.TamperDropLeaf(droppedTxn) {
		t.Fatal("drop hook missed")
	}
	if _, err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	settleReads(env)
	rep, err = Audit(dep, l, AuditOptions{Witness: &head})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ProofFailures) == 0 {
		t.Fatal("forged log proved consistent against the witnessed head")
	}
	unlogged := make(map[string]bool)
	for _, d := range rep.Divergences {
		if d.Kind == DivUnlogged {
			unlogged[d.Item] = true
		}
	}
	for _, li := range droppedItems {
		if !unlogged[li.Name] {
			t.Fatalf("excised item %s not flagged unlogged; divergences: %v", li.Name, rep.Divergences)
		}
	}
}

// TestItemDigestIsInjective pins the length-prefixed attribute encoding:
// attribute sets whose concatenated bytes would collide under naive
// separator-joining must digest differently, or a crafted rewrite could
// slip past the auditor's digest comparison.
func TestItemDigestIsInjective(t *testing.T) {
	a := []sdb.Attr{{Name: "a", Value: "b"}, {Name: "c", Value: "d"}}
	b := []sdb.Attr{{Name: "a", Value: "b\x01c\x00d"}}
	if ItemDigest(a) == ItemDigest(b) {
		t.Fatalf("distinct attribute sets collide: %s", ItemDigest(a))
	}
	c := []sdb.Attr{{Name: "a\x00b", Value: ""}, {Name: "c", Value: "d"}}
	if ItemDigest(a) == ItemDigest(c) {
		t.Fatalf("distinct attribute sets collide: %s", ItemDigest(a))
	}
	// Order independence still holds.
	rev := []sdb.Attr{{Name: "c", Value: "d"}, {Name: "a", Value: "b"}}
	if ItemDigest(a) != ItemDigest(rev) {
		t.Fatal("digest depends on attribute order")
	}
}

// TestConcurrentCheckpointsStaySound races explicit Checkpoint calls
// against each other and against live ingestion — the daemon-plus-witness
// pattern the bench harness runs. Serialization must prevent a slow run
// captured at a smaller size from overwriting a faster run's durable state
// with a truncated prefix: afterwards the durable head covers every leaf
// and a cold Open rebuilds it byte-identically.
func TestConcurrentCheckpointsStaySound(t *testing.T) {
	env, dep, p3, l := newFabric(t, 71, 1)
	set := makeTxns(71, 16, 3)
	commitAll(t, p3, set[:4])

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := l.Checkpoint(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 4; i < len(set); i++ {
		commitAll(t, p3, set[i:i+1])
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	head, err := l.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if head.TreeSize != len(set) {
		t.Fatalf("final head covers %d leaves, want %d", head.TreeSize, len(set))
	}
	settleReads(env)
	reopened, err := Open(env, dep.Store, "")
	if err != nil {
		t.Fatalf("cold open after concurrent checkpoints: %v", err)
	}
	if got := reopened.Head(); got != head {
		t.Fatalf("reopened head %+v != live head %+v", got, head)
	}
}

func TestAuditRefusesDuringMigration(t *testing.T) {
	_, dep, p3, l := newFabric(t, 51, 1)
	commitAll(t, p3, makeTxns(51, 2, 2))
	dep.DB.BeginMigration(2)
	if _, err := Audit(dep, l, AuditOptions{}); err == nil {
		t.Fatal("audit ran inside a migration window")
	}
	dep.DB.Cutover()
}

// TestAuditFailsOnHeadReadError: a head GET that fails for any reason but a
// missing key fails the audit. Read as "pruned", it would drop the head and
// report CLEAN over fewer verified heads. A transient fault the store's
// retries cannot outlast fails it too.
func TestAuditFailsOnHeadReadError(t *testing.T) {
	env, dep, p3, l := newFabric(t, 53, 1)
	for _, set := range [][]txnSpec{makeTxns(53, 2, 2), makeTxns(54, 2, 2)} {
		commitAll(t, p3, set)
		if _, err := l.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	settleReads(env)
	rep, err := Audit(dep, l, AuditOptions{})
	if err != nil || !rep.Clean() || rep.HeadsVerified != 2 {
		t.Fatalf("fault-free audit: %v err %v, want CLEAN over 2 heads", rep, err)
	}
	boom := errors.New("boom")
	inj := env.InstallFaults(nil)
	for _, tc := range []struct {
		name string
		arm  func()
		want func(error) bool
	}{
		{"one failed GET", func() { inj.FailNextOp(store.Endpoint, "s3.GET", boom) }, func(err error) bool { return errors.Is(err, boom) }},
		{"GETs out of retries", func() {
			inj.FailOp(store.Endpoint, "s3.GET", &sim.TransientError{Endpoint: store.Endpoint, Op: "s3.GET", Code: "SlowDown"})
		}, sim.IsTransient},
	} {
		tc.arm()
		rep, err := Audit(dep, l, AuditOptions{})
		inj.ClearOp(store.Endpoint, "s3.GET")
		if !tc.want(err) {
			t.Errorf("%s: audit returned %v err %v, want the GET's error", tc.name, rep, err)
		}
	}
}

// TestSequencerUnderAmbiguousFaults runs the whole pipeline — commits,
// checkpoints, audit — under the 5% ambiguous-fault plan: checkpoints are
// retried until the idempotent stages roll forward, and the audit must come
// out clean with every proof verifying.
func TestSequencerUnderAmbiguousFaults(t *testing.T) {
	env, dep, p3, l := newFabric(t, 61, 2)
	env.InstallFaults(sim.UniformPlan(0.05, 0.5))
	set := makeTxns(61, 12, 3)
	commitAll(t, p3, set)

	var head SignedHead
	var err error
	for attempt := 0; attempt < 100; attempt++ {
		if head, err = l.Checkpoint(); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("checkpoint never succeeded under faults: %v", err)
	}
	if head.TreeSize != len(set) {
		t.Fatalf("head covers %d leaves, want %d", head.TreeSize, len(set))
	}
	settleReads(env)
	var rep AuditReport
	for attempt := 0; attempt < 100; attempt++ {
		if rep, err = Audit(dep, l, AuditOptions{Witness: &head}); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("audit never succeeded under faults: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("faulted run audits dirty: failures=%v divergences=%v", rep.ProofFailures, rep.Divergences)
	}
	if rep.InclusionVerified != len(set) {
		t.Fatalf("audited %d inclusion proofs, want %d", rep.InclusionVerified, len(set))
	}
}

// TamperDropLeaf is the negative-control hook: it excises the leaf for txn
// — what a malicious log server hiding a commit would do — reindexes the
// tail, and resets the durability cursors so the next Checkpoint rewrites
// the forged history and signs a fresh head over it. Detection is the
// auditor's job: the forged log cannot prove consistency against any head
// witnessed before the tamper, and the excised transaction's fabric items
// become "unlogged".
func (l *Log) TamperDropLeaf(txn uuid.UUID) bool {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	i, ok := l.byTxn[txn]
	if !ok {
		return false
	}
	l.leaves = append(l.leaves[:i], l.leaves[i+1:]...)
	l.hashes = l.hashes[:0]
	delete(l.byTxn, txn)
	for j := range l.leaves {
		l.leaves[j].Index = j
		u, _ := uuid.Parse(l.leaves[j].Txn)
		l.byTxn[u] = j
		l.hashes = append(l.hashes, l.leaves[j].Hash())
	}
	l.entriesAt, l.headAt, l.ckptAt = 0, 0, 0
	l.entryStart = nil
	l.lastHead = SignedHead{}
	return true
}
