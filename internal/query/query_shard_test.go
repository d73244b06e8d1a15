package query

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"passcloud/internal/core"
	"passcloud/internal/pasfs"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/trace"
)

// shardedBlast replays the miniBlast workload through P3 on a K×K fabric
// and returns the settled deployment and collector.
func shardedBlast(t *testing.T, k int) (*core.Deployment, *pass.Collector) {
	t.Helper()
	cfg := sim.DefaultConfig()
	env := sim.NewEnv(cfg)
	dep := core.NewShardedDeployment(env, core.Topology{WALShards: k, DBShards: k})
	proto := core.NewP3(dep, core.Options{CommitWorkers: 2})
	col := pass.New(env.Rand(), nil)
	fs := pasfs.New(env, proto, col, pasfs.Config{Collect: true, AsyncCommits: false})

	b := trace.NewBuilder()
	for i := 0; i < 3; i++ {
		raw := "mnt/work/raw" + string(rune('0'+i))
		rep := "mnt/out/hits" + string(rune('0'+i))
		blast := b.Spawn(0, "/usr/bin/blastall", "blastall")
		b.Read(blast, "db/nr.fmt", 1024)
		b.Write(blast, raw, 2048).Close(blast, raw)
		fmtr := b.Spawn(0, "/usr/bin/blastfmt", "blastfmt")
		b.Read(fmtr, raw, 2048).Write(fmtr, rep, 512).Close(fmtr, rep)
	}
	if err := fs.Run(b.Trace()); err != nil {
		t.Fatal(err)
	}
	if err := proto.Settle(); err != nil {
		t.Fatal(err)
	}
	dep.Settle()
	return dep, col
}

// readDigest hashes the ReadProvenance result of every file the collector
// tracked, in a fixed path order.
func readDigest(t *testing.T, dep *core.Deployment, col *pass.Collector) string {
	t.Helper()
	h := sha256.New()
	for i := 0; i < 3; i++ {
		for _, path := range []string{
			"mnt/work/raw" + string(rune('0'+i)),
			"mnt/out/hits" + string(rune('0'+i)),
		} {
			ref, ok := col.FileRef(path)
			if !ok {
				t.Fatalf("collector lost %s", path)
			}
			bundles, err := core.ReadProvenance(dep, core.BackendSDB, ref.UUID)
			if err != nil {
				t.Fatalf("ReadProvenance(%s): %v", path, err)
			}
			h.Write(prov.EncodeBundles(bundles))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCrossShardEquivalence is the read-layer acceptance check: the same
// workload committed on K=1, K=2 and K=4 fabrics must be indistinguishable
// to every reader — byte-identical ReadProvenance digests, identical Q1
// result sets in identical canonical order, identical BFS (Q4) closures
// through the scatter-gathered IN fan-out, and an identical ancestors walk
// with bundles through the itemName() fetches the view routes by home shard.
func TestCrossShardEquivalence(t *testing.T) {
	type snapshot struct {
		digest string
		q1     string
		q4     string
		anc    string
	}
	var first snapshot
	for i, k := range []int{1, 2, 4} {
		dep, col := shardedBlast(t, k)
		e := New(dep, core.BackendSDB)

		var snap snapshot
		snap.digest = readDigest(t, dep, col)

		bundles, _, err := e.AllProvenance(4)
		if err != nil {
			t.Fatalf("K=%d Q1: %v", k, err)
		}
		hq1 := sha256.New()
		for _, b := range bundles {
			hq1.Write([]byte(b.Ref.String() + "\n"))
		}
		snap.q1 = hex.EncodeToString(hq1.Sum(nil))

		refs, _, err := e.DescendantsOf("blastall", 4)
		if err != nil {
			t.Fatalf("K=%d Q4: %v", k, err)
		}
		snap.q4 = fmt.Sprint(refs)
		snap.anc = specDigest(t, e, Spec{
			Roots: Roots{Paths: []string{"mnt/out/hits2"}}, Direction: Ancestors, Project: ProjectBundles,
		})

		if i == 0 {
			first = snap
			if len(bundles) == 0 || len(refs) == 0 {
				t.Fatal("baseline K=1 returned empty results")
			}
			continue
		}
		if snap.digest != first.digest {
			t.Errorf("K=%d ReadProvenance digest diverged", k)
		}
		if snap.q1 != first.q1 {
			t.Errorf("K=%d Q1 result order diverged", k)
		}
		if snap.q4 != first.q4 {
			t.Errorf("K=%d Q4 closure diverged", k)
		}
		if snap.anc != first.anc {
			t.Errorf("K=%d ancestors+bundles stream diverged", k)
		}
	}
}

// pinnedSpecs is the seven-shape equivalence corpus: the Q1–Q4 shapes plus
// the ancestors, filtered and self directions. Every fabric state — any K,
// any cache mode, any reshard phase — must stream these byte-identically.
func pinnedSpecs() []Spec {
	return []Spec{
		{Direction: All, Project: ProjectBundles},
		{Roots: Roots{Paths: []string{"mnt/out/hits1"}}, Direction: Versions, Project: ProjectBundles},
		Q3Spec("blastall", nil, 4),
		Q3Spec("blastall", TypeIs(prov.File), 4),
		Q4Spec("blastall", nil, 4),
		{Roots: Roots{Paths: []string{"mnt/out/hits2"}}, Direction: Ancestors, Project: ProjectBundles},
		{Roots: procSpecRoots("blastfmt"), Direction: Self, Project: ProjectBundles},
	}
}

// specDigest folds a spec's full result stream (refs, depths and bundle
// refs) into one hash.
func specDigest(t *testing.T, e *Engine, spec Spec) string {
	t.Helper()
	h := sha256.New()
	for r, err := range e.Run(spec) {
		if err != nil {
			t.Fatalf("spec %+v: %v", spec, err)
		}
		fmt.Fprintf(h, "%s@%d", r.Ref, r.Depth)
		if r.Bundle != nil {
			h.Write(prov.EncodeBundles([]prov.Bundle{*r.Bundle}))
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSpecCrossShardEquivalence is the new-API acceptance check: a spread
// of Specs — the Q1–Q4 shapes plus the new ancestors, filtered and self
// directions — must produce byte-identical result streams at K=1 and K=4
// (the seeded replay commits identical provenance per topology, as
// TestCrossShardEquivalence established), and within each topology the
// stream must not change when filter pushdown turns off or when the
// read-through cache turns on, cold or warm.
func TestSpecCrossShardEquivalence(t *testing.T) {
	specs := pinnedSpecs()
	var k1 []string
	for _, k := range []int{1, 4} {
		dep, _ := shardedBlast(t, k)
		e := New(dep, core.BackendSDB)
		uncached := make([]string, len(specs))
		for i, s := range specs {
			uncached[i] = specDigest(t, e, s)
		}
		if k == 1 {
			k1 = uncached
		} else {
			for i := range specs {
				if uncached[i] != k1[i] {
					t.Errorf("spec %d: K=%d digest diverged from K=1", i, k)
				}
			}
		}
		e.SetPushdown(false)
		for i, s := range specs {
			if got := specDigest(t, e, s); got != uncached[i] {
				t.Errorf("K=%d spec %d: pushdown-off digest diverged from pushdown-on", k, i)
			}
		}
		e.SetPushdown(true)
		e.SetCache(NewCache(0))
		for i, s := range specs {
			if got := specDigest(t, e, s); got != uncached[i] {
				t.Errorf("K=%d spec %d: cold cache diverged from uncached", k, i)
			}
			if got := specDigest(t, e, s); got != uncached[i] {
				t.Errorf("K=%d spec %d: warm cache diverged from uncached", k, i)
			}
		}
	}
}

// TestRoutedQ2SingleShard checks Q2 on a sharded fabric routes to the home
// shard: the object's provenance is found and the op count stays the
// seed-shaped HEAD + one fetch (no K-way scatter).
func TestRoutedQ2SingleShard(t *testing.T) {
	dep, col := shardedBlast(t, 4)
	e := New(dep, core.BackendSDB)
	bundles, m, err := e.ObjectProvenance("mnt/out/hits1")
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := col.FileRef("mnt/out/hits1")
	found := false
	for _, b := range bundles {
		if b.Ref == ref {
			found = true
		}
	}
	if !found {
		t.Fatalf("Q2 missed the object's own bundle (%d bundles)", len(bundles))
	}
	if m.Ops < 2 || m.Ops > 4 {
		t.Fatalf("Q2 ops = %d, want 2-4 (routed, not scattered)", m.Ops)
	}
}

// TestSpecEquivalenceDuringReshard walks the seven pinned spec shapes
// through every phase of a live 1->4 reshard — mid-copy, pre-cutover,
// post-cutover-pre-GC and completed — asserting byte-identical digests in
// every state, uncached and with a cache that stays warm *across* the
// epoch transitions (zero cache-coherence violations: a stale cached
// observation that leaked a different result stream would flip a digest).
func TestSpecEquivalenceDuringReshard(t *testing.T) {
	specs := pinnedSpecs()
	dep, _ := shardedBlast(t, 1)
	e := New(dep, core.BackendSDB)

	baseline := make([]string, len(specs))
	for i, s := range specs {
		baseline[i] = specDigest(t, e, s)
	}

	check := func(state string, cached *Engine) {
		t.Helper()
		for i, s := range specs {
			if got := specDigest(t, e, s); got != baseline[i] {
				t.Errorf("%s: spec %d uncached digest diverged", state, i)
			}
			if got := specDigest(t, cached, s); got != baseline[i] {
				t.Errorf("%s: spec %d cached digest diverged", state, i)
			}
		}
	}

	// The cached engine keeps one cache warm across every migration state.
	cached := New(dep, core.BackendSDB)
	cached.SetCache(NewCache(0))
	target := core.Topology{WALShards: 4, DBShards: 4}

	// Phase walk: arm the next crash point, roll the migration forward to
	// it, and re-run the whole corpus against the frozen state.
	for _, point := range []sim.CrashPoint{
		core.ReshardCrashMidCopy, core.ReshardCrashPreCutover, core.ReshardCrashPreGC,
	} {
		dep.Env.InstallFaults(nil).CrashAt(point, 0)
		var err error
		if point == core.ReshardCrashMidCopy {
			_, err = dep.Reshard(context.Background(), target)
		} else {
			_, _, err = core.ResumeReshard(context.Background(), dep)
		}
		if err == nil {
			t.Fatalf("crash at %s did not fire", point)
		}
		check(string(point), cached)
	}
	if _, resumed, err := core.ResumeReshard(context.Background(), dep); err != nil || !resumed {
		t.Fatalf("final resume: resumed=%v err=%v", resumed, err)
	}
	check("completed", cached)
	if s := cached.Cache().Stats(); s.Hits == 0 {
		t.Error("warm cache recorded no hits across the migration")
	}
}

// TestQuerySnapshotSurvivesCutover pins the planner's per-Run epoch
// snapshot: a traversal that begins against a mid-migration fabric and has
// the cutover (and its GC) land between its levels must stream exactly what
// it would have streamed without the race — the snapshotted view keeps the
// whole traversal in one epoch pair.
func TestQuerySnapshotSurvivesCutover(t *testing.T) {
	dep, _ := shardedBlast(t, 1)
	e := New(dep, core.BackendSDB)
	spec := Q4Spec("blastall", nil, 4)
	want := specDigest(t, e, spec)

	dep.Env.InstallFaults(nil).CrashAt(core.ReshardCrashPreCutover, 0)
	if _, err := dep.Reshard(context.Background(), core.Topology{WALShards: 4, DBShards: 4}); err == nil {
		t.Fatal("pre-cutover crash did not fire")
	}

	h := sha256.New()
	first := true
	resumeDone := make(chan error, 1)
	for r, err := range e.Run(spec) {
		if err != nil {
			t.Fatal(err)
		}
		if first {
			first = false
			// Cutover + GC race the iteration from another goroutine:
			// items move home while this traversal is mid-flight, and the
			// GC's read barrier must wait for the iteration's view to be
			// released before deleting the old copies (running the resume
			// inline here would therefore deadlock — by design).
			go func() {
				_, resumed, err := core.ResumeReshard(context.Background(), dep)
				if err == nil && !resumed {
					err = fmt.Errorf("nothing resumed")
				}
				resumeDone <- err
			}()
		}
		fmt.Fprintf(h, "%s@%d", r.Ref, r.Depth)
		if r.Bundle != nil {
			h.Write(prov.EncodeBundles([]prov.Bundle{*r.Bundle}))
		}
		h.Write([]byte{'\n'})
	}
	if err := <-resumeDone; err != nil {
		t.Fatalf("mid-iteration resume: %v", err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Error("mid-iteration cutover split the traversal across epochs")
	}
	// And a fresh post-migration run still matches.
	if got := specDigest(t, e, spec); got != want {
		t.Error("post-migration digest diverged")
	}
}

// TestQueryViewBlocksReshardGC pins the read barrier end-to-end: a query
// that captured its routing view on a *stable* pre-migration fabric keeps
// streaming correct results while an entire reshard — copy, cutover, GC —
// runs concurrently; the GC waits for the iteration's view release instead
// of deleting moved items out from under its single-home routing.
func TestQueryViewBlocksReshardGC(t *testing.T) {
	dep, _ := shardedBlast(t, 1)
	e := New(dep, core.BackendSDB)
	spec := Q4Spec("blastall", nil, 4)
	want := specDigest(t, e, spec)

	reshardDone := make(chan error, 1)
	h := sha256.New()
	first := true
	for r, err := range e.Run(spec) {
		if err != nil {
			t.Fatal(err)
		}
		if first {
			first = false
			go func() {
				_, err := dep.Reshard(context.Background(), core.Topology{WALShards: 4, DBShards: 4})
				reshardDone <- err
			}()
		}
		fmt.Fprintf(h, "%s@%d", r.Ref, r.Depth)
		if r.Bundle != nil {
			h.Write(prov.EncodeBundles([]prov.Bundle{*r.Bundle}))
		}
		h.Write([]byte{'\n'})
	}
	if err := <-reshardDone; err != nil {
		t.Fatalf("concurrent reshard: %v", err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Error("full reshard racing a pre-window query changed its stream")
	}
	if got := specDigest(t, e, spec); got != want {
		t.Error("post-migration digest diverged")
	}
	mis, dup, err := core.AuditFabric(dep)
	if err != nil || mis != 0 || dup != 0 {
		t.Fatalf("audit: misplaced=%d duplicates=%d err=%v", mis, dup, err)
	}
}
