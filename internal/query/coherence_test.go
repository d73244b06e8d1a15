package query

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// liveDeployment returns a strict-consistency K-shard deployment plus a P2
// client; every P2 Commit publishes a commit notice on dep.Commits
// synchronously, so these tests exercise the same coherence path the P3
// commit daemons use without running a WAL.
func liveDeployment(t *testing.T, k int) (*core.Deployment, *core.P2) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Consistency = sim.Strict
	env := sim.NewEnv(cfg)
	dep := core.NewShardedDeployment(env, core.Topology{WALShards: k, DBShards: k})
	return dep, core.NewP2(dep, core.Options{})
}

// commitChain commits version v of one proc→file chain: process node prog
// at version v plus its output file at path, linked by an input edge. Each
// call is one committed transaction (one notice).
func commitChain(t *testing.T, p2 *core.P2, prog, path string, procU, fileU uuid.UUID, v int) {
	t.Helper()
	procRef := prov.Ref{UUID: procU, Version: v}
	fileRef := prov.Ref{UUID: fileU, Version: v}
	procRecords := []prov.Record{
		{Attr: prov.AttrType, Value: "proc"},
		{Attr: prov.AttrName, Value: prog},
	}
	fileRecords := []prov.Record{
		{Attr: prov.AttrType, Value: "file"},
		{Attr: prov.AttrName, Value: path},
		{Attr: prov.AttrInput, Xref: procRef},
	}
	if v > 1 {
		procRecords = append(procRecords, prov.Record{
			Attr: prov.AttrPrevVer, Xref: prov.Ref{UUID: procU, Version: v - 1},
		})
		fileRecords = append(fileRecords, prov.Record{
			Attr: prov.AttrPrevVer, Xref: prov.Ref{UUID: fileU, Version: v - 1},
		})
	}
	err := p2.Commit(core.FileObject{Path: path, Size: 1024, Ref: fileRef}, []prov.Bundle{
		{Ref: procRef, Type: prov.Process, Name: prog, Records: procRecords},
		{Ref: fileRef, Type: prov.File, Name: path, Records: fileRecords},
	})
	if err != nil {
		t.Fatalf("commit %s v%d: %v", prog, v, err)
	}
}

// chainSpecs is the read mix each coherence test replays: the version set
// of the chain's file (vers/ observations), the find shape on the program
// (attr/ observations), and the depth-1 and unbounded descendant walks
// (kids/ observations).
func chainSpecs(prog string, fileU uuid.UUID) []Spec {
	return []Spec{
		{Roots: Roots{UUIDs: []uuid.UUID{fileU}}, Direction: Versions, Project: ProjectBundles},
		{Roots: procSpecRoots(prog), Direction: Self},
		Q3Spec(prog, nil, 2),
		Q4Spec(prog, nil, 2),
	}
}

// TestSubscribedCacheLiveCommits is the core coherence contract: a warm
// subscribed cache must stream byte-identical results to an uncached engine
// after every committed transaction — no flush, no re-warm, invalidation
// alone keeps it exact.
func TestSubscribedCacheLiveCommits(t *testing.T) {
	dep, p2 := liveDeployment(t, 2)
	rnd := sim.NewRand(7)
	procU, fileU := uuid.New(rnd), uuid.New(rnd)
	commitChain(t, p2, "gend", "mnt/gen/out", procU, fileU, 1)
	commitChain(t, p2, "gend", "mnt/gen/out", procU, fileU, 2)

	uncached := New(dep, core.BackendSDB)
	sub := New(dep, core.BackendSDB)
	sub.SetCache(NewCache(0))
	if err := sub.Subscribe(); err != nil {
		t.Fatal(err)
	}
	specs := chainSpecs("gend", fileU)
	for v := 3; v <= 6; v++ {
		for _, s := range specs { // warm the observations the commit must kill
			specDigest(t, sub, s)
		}
		commitChain(t, p2, "gend", "mnt/gen/out", procU, fileU, v)
		for i, s := range specs {
			if got, want := specDigest(t, sub, s), specDigest(t, uncached, s); got != want {
				t.Errorf("v%d spec %d: subscribed cache diverged after live commit", v, i)
			}
		}
	}
	s := sub.Cache().Stats()
	if !s.Subscribed {
		t.Error("cache does not report itself subscribed")
	}
	if s.Invalidations == 0 {
		t.Error("live commits invalidated nothing")
	}
	if s.CoherenceHits == 0 {
		t.Error("no observation was ever served under subscription")
	}
}

// TestPreciseInvalidation pins that invalidation is targeted, not a flush:
// committing to one chain must drop exactly that chain's observations —
// the untouched chain keeps answering from cache without a single new
// SELECT, while the touched chain re-reads and matches a fresh engine.
func TestPreciseInvalidation(t *testing.T) {
	dep, p2 := liveDeployment(t, 2)
	rnd := sim.NewRand(9)
	procA, fileA := uuid.New(rnd), uuid.New(rnd)
	procB, fileB := uuid.New(rnd), uuid.New(rnd)
	for v := 1; v <= 2; v++ {
		commitChain(t, p2, "alpha", "mnt/a/out", procA, fileA, v)
		commitChain(t, p2, "beta", "mnt/b/out", procB, fileB, v)
	}

	sub := New(dep, core.BackendSDB)
	sub.SetCache(NewCache(0))
	if err := sub.Subscribe(); err != nil {
		t.Fatal(err)
	}
	alphaSpecs := chainSpecs("alpha", fileA)
	betaSpecs := chainSpecs("beta", fileB)
	for _, s := range append(alphaSpecs, betaSpecs...) { // warm both chains
		specDigest(t, sub, s)
	}
	warmed := selects(dep)
	for _, s := range append(alphaSpecs, betaSpecs...) {
		specDigest(t, sub, s)
	}
	if d := selects(dep) - warmed; d != 0 {
		t.Fatalf("warm re-read issued %d SELECTs, want 0 (observations should answer)", d)
	}
	inval0 := sub.Cache().Stats().Invalidations

	commitChain(t, p2, "alpha", "mnt/a/out", procA, fileA, 3)

	// Untouched chain: still fully served from observations.
	before := selects(dep)
	for _, s := range betaSpecs {
		specDigest(t, sub, s)
	}
	if d := selects(dep) - before; d != 0 {
		t.Errorf("commit to alpha cost beta %d SELECTs, want 0 (invalidation not precise)", d)
	}
	// Touched chain: observations dropped, results re-read and fresh.
	before = selects(dep)
	uncached := New(dep, core.BackendSDB)
	for i, s := range alphaSpecs {
		if got, want := specDigest(t, sub, s), specDigest(t, uncached, s); got != want {
			t.Errorf("alpha spec %d stale after its own commit", i)
		}
	}
	if selects(dep) == before {
		t.Error("alpha re-read issued no SELECTs — stale observations survived the notice")
	}
	if s := sub.Cache().Stats(); s.Invalidations <= inval0 {
		t.Errorf("invalidations did not grow: %d -> %d", inval0, s.Invalidations)
	}
}

// TestSubscribeLifecycle covers the subscription edges: Subscribe without a
// cache fails; Subscribe is idempotent; a warm cache that missed commits
// while detached serves stale sets (the documented eventual-consistency
// default) and attaching drops those observations rather than trusting
// them.
func TestSubscribeLifecycle(t *testing.T) {
	dep, p2 := liveDeployment(t, 1)
	rnd := sim.NewRand(13)
	procU, fileU := uuid.New(rnd), uuid.New(rnd)
	commitChain(t, p2, "gend", "mnt/gen/out", procU, fileU, 1)

	bare := New(dep, core.BackendSDB)
	if err := bare.Subscribe(); err == nil {
		t.Error("Subscribe without a cache succeeded")
	}

	e := New(dep, core.BackendSDB)
	e.SetCache(NewCache(0))
	spec := chainSpecs("gend", fileU)[0] // the vers/ observation
	stale := specDigest(t, e, spec)      // warm while detached
	commitChain(t, p2, "gend", "mnt/gen/out", procU, fileU, 2)

	// Detached: the pre-commit observation is served (eventual consistency).
	if got := specDigest(t, e, spec); got != stale {
		t.Fatal("detached cache did not serve the stale observation — negative control broken")
	}
	uncached := New(dep, core.BackendSDB)
	want := specDigest(t, uncached, spec)
	if want == stale {
		t.Fatal("commit did not change the version set — workload broken")
	}

	// Attaching must drop pre-subscription observations: they may already
	// have missed notices, as this one did.
	if err := e.Subscribe(); err != nil {
		t.Fatal(err)
	}
	if err := e.Subscribe(); err != nil {
		t.Errorf("second Subscribe not idempotent: %v", err)
	}
	if got := specDigest(t, e, spec); got != want {
		t.Error("pre-subscription observation survived attach and served stale")
	}
	e.Unsubscribe()
	if e.Cache().Stats().Subscribed {
		t.Error("cache still reports subscribed after Unsubscribe")
	}
}

// TestWarmCacheReshardStraddle is the epoch-guard regression test: a warm
// UNSUBSCRIBED cache that straddles a 1→4 reshard must not serve any
// pre-cutover observation — every non-item entry is epoch-flushed and
// re-read against the new placement — while a subscribed cache keeps
// serving across the cutover because notices keep it precise regardless of
// placement.
func TestWarmCacheReshardStraddle(t *testing.T) {
	dep, _ := shardedBlast(t, 1)
	specs := pinnedSpecs()
	uncached := New(dep, core.BackendSDB)
	baseline := make([]string, len(specs))
	for i, s := range specs {
		baseline[i] = specDigest(t, uncached, s)
	}

	warm := New(dep, core.BackendSDB)
	warm.SetCache(NewCache(0))
	sub := New(dep, core.BackendSDB)
	sub.SetCache(NewCache(0))
	if err := sub.Subscribe(); err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		specDigest(t, warm, s)
		specDigest(t, sub, s)
	}

	if _, err := dep.Reshard(context.Background(), core.Topology{WALShards: 4, DBShards: 4}); err != nil {
		t.Fatalf("reshard: %v", err)
	}

	before := selects(dep)
	for i, s := range specs {
		if got := specDigest(t, warm, s); got != baseline[i] {
			t.Errorf("spec %d: straddling warm cache served a pre-cutover set", i)
		}
	}
	if selects(dep) == before {
		t.Error("post-cutover reads issued no SELECTs — pre-cutover observations were served")
	}
	if s := warm.Cache().Stats(); s.EpochFlushes == 0 {
		t.Error("cutover flushed no observations from the unsubscribed cache")
	}

	flushes := sub.Cache().Stats().EpochFlushes
	hits0 := sub.Cache().Stats().CoherenceHits
	for i, s := range specs {
		if got := specDigest(t, sub, s); got != baseline[i] {
			t.Errorf("spec %d: subscribed cache diverged across the cutover", i)
		}
	}
	if s := sub.Cache().Stats(); s.EpochFlushes != flushes {
		t.Errorf("subscribed cache epoch-flushed (%d -> %d); notices should carry it across epochs",
			flushes, s.EpochFlushes)
	} else if s.CoherenceHits == hits0 {
		t.Error("subscribed cache served nothing across the cutover")
	}
}

// TestSetCacheWhileSubscribed pins what replacing the cache of a subscribed
// engine does: the subscription belongs to the cache that attached, so
// SetCache detaches it first. Removing the cache must leave nothing for a
// later Unsubscribe to trip over, and a replacement cache must be attachable
// by a fresh Subscribe — not shadowed by the old cache's bus callback.
func TestSetCacheWhileSubscribed(t *testing.T) {
	dep, p2 := liveDeployment(t, 1)
	rnd := sim.NewRand(19)
	procU, fileU := uuid.New(rnd), uuid.New(rnd)
	commitChain(t, p2, "gend", "mnt/gen/out", procU, fileU, 1)
	spec := chainSpecs("gend", fileU)[0] // the vers/ observation
	uncached := New(dep, core.BackendSDB)

	// cache sub, cache <n>, cache sub.
	e := New(dep, core.BackendSDB)
	old := NewCache(0)
	e.SetCache(old)
	if err := e.Subscribe(); err != nil {
		t.Fatal(err)
	}
	specDigest(t, e, spec) // an observation a stray notice would drop
	fresh := NewCache(0)
	e.SetCache(fresh)
	if old.Stats().Subscribed {
		t.Error("replaced cache still reports subscribed")
	}
	if err := e.Subscribe(); err != nil {
		t.Fatal(err)
	}
	if !fresh.Stats().Subscribed {
		t.Fatal("Subscribe after SetCache did not attach the new cache")
	}
	specDigest(t, e, spec) // warm the new cache's vers/ observation
	commitChain(t, p2, "gend", "mnt/gen/out", procU, fileU, 2)
	if fresh.Stats().Invalidations == 0 {
		t.Error("commit notice did not reach the new cache")
	}
	if old.Stats().Invalidations != 0 {
		t.Error("commit notice still reached the replaced cache")
	}
	if got, want := specDigest(t, e, spec), specDigest(t, uncached, spec); got != want {
		t.Error("replacement cache served a stale observation while subscribed")
	}

	// cache sub, cache off, cache unsub — provctl's sequence.
	e.SetCache(old)
	if err := e.Subscribe(); err != nil {
		t.Fatal(err)
	}
	e.SetCache(nil)
	if old.Stats().Subscribed {
		t.Error("removed cache still reports subscribed")
	}
	e.Unsubscribe() // nothing left to detach; must not touch the removed cache
}

// TestPaddedObservationsInvalidate: the kids observations a padded read
// stores for its pads are observations like any other. A commit that gives
// a padded ref a new child drops its observation, and the re-run sees the
// child — whether v2's round padded v4 (a walk from v1) or the roots' own
// round did (a walk from v2, which has an earlier version).
func TestPaddedObservationsInvalidate(t *testing.T) {
	for _, tc := range []struct {
		root        int
		wantSelects int64
	}{{1, 8}, {2, 4}} {
		dep, p2 := liveDeployment(t, 4)
		rnd := sim.NewRand(29)
		fileU := uuid.New(rnd)
		version := func(v int) prov.Ref { return prov.Ref{UUID: fileU, Version: v} }
		commit := func(b prov.Bundle) {
			t.Helper()
			if err := p2.Commit(core.FileObject{Path: b.Name, Size: 1024, Ref: b.Ref}, []prov.Bundle{b}); err != nil {
				t.Fatal(err)
			}
		}
		commit(fileNode(version(1), "mnt/chain"))
		for v := 2; v <= 5; v++ {
			commit(fileNode(version(v), "mnt/chain", version(v-1)))
		}
		sub := New(dep, core.BackendSDB)
		sub.SetCache(NewCache(0))
		if err := sub.Subscribe(); err != nil {
			t.Fatal(err)
		}
		spec := Spec{Roots: Roots{Refs: []prov.Ref{version(tc.root)}}, Direction: Descendants}
		before := selects(dep)
		specDigest(t, sub, spec) // v2's round is padded with v3…v21
		if n := selects(dep) - before; n != tc.wantSelects {
			t.Fatalf("from v%d the warming walk billed %d SELECTs, want %d: it was not padded", tc.root, n, tc.wantSelects)
		}
		if !sub.Cache().has(kidsKey(version(4))) {
			t.Fatalf("from v%d the padded read stored no observation for its pad v4", tc.root)
		}
		side := prov.Ref{UUID: uuid.New(rnd), Version: 1}
		commit(fileNode(side, "mnt/side", version(4)))
		got := stream(t, sub, spec)
		if want := stream(t, New(dep, core.BackendSDB), spec); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("from v%d, after a commit under the padded ref v4 the cached walk streamed\n %v\nwant\n %v", tc.root, got, want)
		}
		if depth := 5 - tc.root; !slices.Contains(got, fmt.Sprintf("%s@%d", side, depth)) {
			t.Errorf("from v%d the re-run missed v4's new child %s: %v", tc.root, side, got)
		}
	}
}
