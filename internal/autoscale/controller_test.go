package autoscale

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// testCfg is a deliberately tight policy for manual-clock unit tests:
// band [20, 100] ops/s/shard, resize target 45 (inside the band), backlog
// trigger effectively off.
var testCfg = Config{
	MinK:                1,
	MaxK:                4,
	GrowOpsPerShard:     100,
	ShrinkOpsPerShard:   20,
	TargetOpsPerShard:   45,
	GrowBacklogPerShard: 1 << 30,
	Cooldown:            30 * time.Second,
}

// newRig builds a K=1 manual-clock deployment with an enabled controller.
func newRig(t *testing.T, cfg Config) (*core.Deployment, *Controller) {
	t.Helper()
	dep := core.NewShardedDeployment(sim.NewEnv(sim.DefaultConfig()), core.Topology{WALShards: 1, DBShards: 1})
	ctl := New(dep, cfg)
	ctl.Enable()
	return dep, ctl
}

// addOps bumps the cumulative endpoint counter the sampler differences.
func addOps(dep *core.Deployment, endpoint string, n int) {
	m := dep.Env.Meter()
	for i := 0; i < n; i++ {
		m.CountEndpointOp(endpoint)
	}
}

// tick advances the sim clock one window and runs one controller step.
func tick(t *testing.T, dep *core.Deployment, ctl *Controller, window time.Duration) {
	t.Helper()
	dep.Env.Clock().Advance(window)
	if err := ctl.Step(context.Background()); err != nil {
		t.Fatalf("Step: %v", err)
	}
}

func activeK(dep *core.Deployment) int { return dep.DB.Directory().Active().Shards }

// readRecConverged reads the persisted decision record after riding out the
// store's eventual-consistency staleness bound (<= 10x the 700ms mean), so
// assertions see what a genuinely restarted controller would.
func readRecConverged(t *testing.T, dep *core.Deployment, ctl *Controller) (DecisionRecord, bool) {
	t.Helper()
	dep.Env.Clock().Advance(10 * time.Second)
	rec, ok, err := ctl.readRecord()
	if err != nil {
		t.Fatalf("readRecord: %v", err)
	}
	return rec, ok
}

// TestAutoscaleGrowShrinkHysteresis drives one full loop: overload grows
// the fabric to a K sized for the rate, the cooldown holds the next
// decision, and a silent fabric shrinks back to MinK — each decision
// leaving a closed ("done") record behind.
func TestAutoscaleGrowShrinkHysteresis(t *testing.T) {
	dep, ctl := newRig(t, testCfg)
	walName := dep.WAL.Shard(0).Name()

	tick(t, dep, ctl, 0) // baseline sample: no window yet, must hold
	if st := ctl.Status(); st.Holds != 1 || st.Grows+st.Shrinks != 0 {
		t.Fatalf("baseline sample decided something: %+v", st)
	}

	// 2000 ops over 10s = 200 ops/s on one shard — far over the grow
	// threshold; sized to target 45 -> ceil(200/45)=5, clamped to MaxK=4.
	addOps(dep, walName, 2000)
	tick(t, dep, ctl, 10*time.Second)
	if k := activeK(dep); k != 4 {
		t.Fatalf("K after overload = %d, want 4", k)
	}
	if st := ctl.Status(); st.Grows != 1 {
		t.Fatalf("grow not recorded: %+v", st)
	}
	rec, ok := readRecConverged(t, dep, ctl)
	if !ok || rec.State != RecordDone || rec.TargetK != 4 {
		t.Fatalf("record after grow: %+v ok=%v", rec, ok)
	}

	// A silent window right after the decision is shrink-worthy on its own,
	// but falls inside the cooldown: the controller must hold.
	tick(t, dep, ctl, 10*time.Second)
	if st := ctl.Status(); st.Grows != 1 || st.Shrinks != 0 {
		t.Fatalf("cooldown did not hold: %+v", st)
	}
	if k := activeK(dep); k != 4 {
		t.Fatalf("cooldown moved the fabric: K=%d", k)
	}

	// A silent fabric past the cooldown shrinks back to MinK. The reshard
	// itself bleeds a few endpoint ops into the next window, so allow a few
	// ticks for the rate to settle under the shrink threshold.
	for i := 0; i < 6 && activeK(dep) != 1; i++ {
		tick(t, dep, ctl, 60*time.Second)
	}
	if k := activeK(dep); k != 1 {
		t.Fatalf("K after idle = %d, want 1", k)
	}
	if st := ctl.Status(); st.Shrinks < 1 {
		t.Fatalf("shrink not recorded: %+v", st)
	}
	rec, ok = readRecConverged(t, dep, ctl)
	if !ok || rec.State != RecordDone || rec.TargetK != 1 {
		t.Fatalf("record after shrink: %+v ok=%v", rec, ok)
	}
}

// TestReadRecordFailureIsNotAbsence: a store read that fails for any reason
// other than a missing key is an error, not "no record was ever written" —
// otherwise a controller would decide afresh over an open obligation it
// merely failed to read.
func TestReadRecordFailureIsNotAbsence(t *testing.T) {
	dep, ctl := newRig(t, testCfg)
	if _, ok, err := ctl.readRecord(); ok || err != nil {
		t.Fatalf("fresh controller: ok=%v err=%v, want no record and no error", ok, err)
	}
	tick(t, dep, ctl, 0)
	addOps(dep, dep.WAL.Shard(0).Name(), 2000)
	tick(t, dep, ctl, 10*time.Second)
	dep.Env.Clock().Advance(10 * time.Second)

	boom := errors.New("s3 unavailable")
	inj := dep.Env.InstallFaults(nil)
	inj.FailOp("s3", "s3.GET", boom)
	if rec, ok, err := ctl.readRecord(); !errors.Is(err, boom) || ok {
		t.Fatalf("readRecord under a failing GET: %+v ok=%v err=%v, want boom", rec, ok, err)
	}
	if err := ctl.Step(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("Step under a failing GET = %v, want boom", err)
	}
	inj.ClearOp("s3", "s3.GET")
	if rec, ok := readRecConverged(t, dep, ctl); !ok || rec.State != RecordDone || rec.TargetK != 4 {
		t.Fatalf("record once the GET heals: %+v ok=%v", rec, ok)
	}
}

// TestReadRecordRejectsCorruptRecords stores decision records no
// controller writes on a K=2 fabric: each must make readRecord and Step
// return an error and leave the fabric at K=2, never finish a decision
// toward the width the corrupt record names.
func TestReadRecordRejectsCorruptRecords(t *testing.T) {
	dep := core.NewShardedDeployment(sim.NewEnv(sim.DefaultConfig()), core.Topology{WALShards: 2, DBShards: 2})
	ctl := New(dep, testCfg)
	ctl.Enable()
	for _, body := range []string{
		`{"seq":1,"from_k":2,"target_k":0,"state":"decided"}`,
		`{"seq":1,"from_k":2,"target_k":65,"state":"decided"}`,
		`{"seq":1,"from_k":2,"target_k":1,"state":"bogus"}`,
	} {
		if err := dep.Store.Put(RecordKey, []byte(body), nil); err != nil {
			t.Fatal(err)
		}
		dep.Env.Clock().Advance(10 * time.Second) // the store's staleness bound
		if rec, ok, err := ctl.readRecord(); err == nil || ok {
			t.Errorf("readRecord(%s) = %+v ok=%v err=%v, want an error", body, rec, ok, err)
		}
		if err := ctl.Step(context.Background()); err == nil {
			t.Errorf("Step over %s = nil, want an error", body)
		}
		if k := activeK(dep); k != 2 {
			t.Fatalf("after %s: K=%d, want 2", body, k)
		}
	}
}

// TestAutoscaleSteadyLoadNeverFlaps is the negative control the acceptance
// criteria demand: a steady in-band rate across many windows produces zero
// decisions and zero epoch transitions.
func TestAutoscaleSteadyLoadNeverFlaps(t *testing.T) {
	dep, ctl := newRig(t, testCfg)
	walName := dep.WAL.Shard(0).Name()
	epoch := dep.DB.Directory().Epoch()

	tick(t, dep, ctl, 0) // baseline
	for i := 0; i < 20; i++ {
		addOps(dep, walName, 500) // 50 ops/s: inside [20, 100]
		tick(t, dep, ctl, 10*time.Second)
	}
	st := ctl.Status()
	if st.Grows != 0 || st.Shrinks != 0 {
		t.Fatalf("steady load flapped: %+v", st)
	}
	if got := dep.DB.Directory().Epoch(); got != epoch {
		t.Fatalf("steady load moved the epoch %d -> %d", epoch, got)
	}
	if _, ok, _ := ctl.readRecord(); ok {
		t.Fatal("steady load persisted a decision record")
	}
}

// TestAutoscaleCounterResetNotLoadCliff pins the windowed-delta clamp: a
// per-endpoint counter that goes backwards between samples (a restarted
// meter) must read as "everything it shows happened this window", never as
// a negative rate that triggers a spurious shrink.
func TestAutoscaleCounterResetNotLoadCliff(t *testing.T) {
	cfg := testCfg
	dep := core.NewShardedDeployment(sim.NewEnv(sim.DefaultConfig()), core.Topology{WALShards: 2, DBShards: 2})
	ctl := New(dep, cfg)
	ctl.Enable()
	walName := dep.WAL.Shard(0).Name()

	tick(t, dep, ctl, 0) // baseline snapshot
	// Doctor the baseline to be far ahead of the live counter, as if the
	// controller restarted against a fresh meter.
	ctl.mu.Lock()
	ctl.prev[walName] = 1 << 40
	ctl.mu.Unlock()

	// 60 ops/s/shard of real traffic: inside the band, so the only way a
	// decision happens is the un-clamped negative delta reading as a cliff.
	addOps(dep, walName, 600)
	addOps(dep, dep.WAL.Shard(1).Name(), 600)
	tick(t, dep, ctl, 10*time.Second)

	st := ctl.Status()
	if st.RatePerShard < 0 {
		t.Fatalf("windowed rate went negative: %+v", st)
	}
	if st.Shrinks != 0 || st.Grows != 0 || activeK(dep) != 2 {
		t.Fatalf("counter reset read as a load cliff: %+v K=%d", st, activeK(dep))
	}
}

// TestAutoscaleSamplingRaceClean exercises the sampling path concurrently
// with live meter traffic and a reshard — the combination the -race CI job
// pins (a meter snapshot race would surface here).
func TestAutoscaleSamplingRaceClean(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.TimeScale = 5000 // live clock so goroutines interleave for real
	dep := core.NewShardedDeployment(sim.NewEnv(cfg), core.Topology{WALShards: 1, DBShards: 1})
	ctl := New(dep, testCfg)
	ctl.Enable()
	ctx := context.Background()

	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // traffic: endpoint counters and real queue ops
		defer wg.Done()
		m := dep.Env.Meter()
		q := dep.WAL.Shard(0)
		for i := 0; i < 300; i++ {
			m.CountEndpointOp(q.Name())
			if i%50 == 0 {
				if _, err := q.SendMessage([]byte("race-probe")); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	go func() { // the sampler under test
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if err := ctl.Step(ctx); err != nil {
				t.Errorf("Step: %v", err)
			}
		}
	}()
	go func() { // a live reshard racing the sampler
		defer wg.Done()
		if _, err := dep.Reshard(ctx, core.Topology{WALShards: 2, DBShards: 2}); err != nil {
			t.Errorf("Reshard: %v", err)
		}
	}()
	wg.Wait()

	// The sampler must still read a coherent world afterwards.
	if err := ctl.Step(ctx); err != nil {
		t.Fatal(err)
	}
	if st := ctl.Status(); st.Samples == 0 {
		t.Fatalf("no samples taken: %+v", st)
	}
}

// TestAutoscaleResiliencePropagationAcrossCycles is the regression net for
// endpoints born mid-run: across repeated controller-driven grow/shrink
// cycles, every live queue and domain — including those a reshard minted
// while its window was open, and slots re-minted after a shrink released
// them — must absorb a forced transient fault through the deployment's retry
// layer, and with the layer removed the same fault must surface raw.
func TestAutoscaleResiliencePropagationAcrossCycles(t *testing.T) {
	cfg := testCfg
	cfg.MaxK = 3
	cfg.TargetOpsPerShard = 80 // 200 ops/s -> ceil(200/80) = 3
	cfg.Cooldown = 20 * time.Second
	dep, ctl := newRig(t, cfg)
	ctx := context.Background()
	client := dep.Res
	if client == nil {
		t.Fatal("sharded deployment did not install a resilient client")
	}
	inj := dep.Env.InstallFaults(nil)

	// failNext arms one transient fault on the next op of kind against
	// endpoint; the probes are deletes of nothing, which change no state.
	failNext := func(endpoint, kind string) {
		inj.FailNextOp(endpoint, kind, &sim.TransientError{Endpoint: endpoint, Op: kind, Code: sim.CodeServiceUnavailable})
	}
	checkWired := func(cycle int) {
		t.Helper()
		for i := 0; i < dep.WAL.Shards(); i++ {
			q := dep.WAL.Shard(i)
			failNext(q.Name(), "sqs.DeleteMessageBatch")
			if err := q.DeleteMessageBatch([]string{"no-such-message#1"}); err != nil {
				t.Fatalf("cycle %d: queue %s did not absorb a transient fault: %v", cycle, q.Name(), err)
			}
		}
		for i := 0; i < dep.DB.Shards(); i++ {
			d := dep.DB.Shard(i)
			failNext(d.Name(), "sdb.BatchDeleteAttributes")
			if err := d.BatchDeleteAttributes([]string{"no-such-item"}); err != nil {
				t.Fatalf("cycle %d: domain %s did not absorb a transient fault: %v", cycle, d.Name(), err)
			}
		}
	}

	tick(t, dep, ctl, 0) // baseline
	for cycle := 0; cycle < 3; cycle++ {
		// Ride out the cooldown left by the previous cycle's shrink (at
		// MinK an idle window holds, so this moves nothing).
		tick(t, dep, ctl, 30*time.Second)

		// Overload -> grow to 3.
		addOps(dep, dep.WAL.Shard(0).Name(), 2000)
		tick(t, dep, ctl, 10*time.Second)
		if k := activeK(dep); k != 3 {
			t.Fatalf("cycle %d: K after overload = %d, want 3", cycle, k)
		}
		checkWired(cycle)

		// Idle past the cooldown -> shrink back to 1, releasing the slots.
		for i := 0; i < 6 && activeK(dep) != 1; i++ {
			tick(t, dep, ctl, 60*time.Second)
		}
		if k := activeK(dep); k != 1 {
			t.Fatalf("cycle %d: K after idle = %d, want 1", cycle, k)
		}
		checkWired(cycle)
		if w, d := dep.WAL.Shards(), dep.DB.Shards(); w != 1 || d != 1 {
			t.Fatalf("cycle %d: %d WAL and %d DB shards retained after shrink, want 1 and 1", cycle, w, d)
		}
	}

	// One more grow, then prove a brand-new (released and re-materialized)
	// endpoint actually retries through the client, not just points at it.
	// The window includes the previous reshard's own duration on top of the
	// 60s advance, so size the burst to land K=3 for any window up to ~100s
	// (>240 ops/s clamps to MaxK=3, >160 rounds up to 3).
	addOps(dep, dep.WAL.Shard(0).Name(), 16000)
	tick(t, dep, ctl, 60*time.Second)
	if k := activeK(dep); k != 3 {
		t.Fatalf("final grow: K = %d, want 3", k)
	}
	reborn := dep.WAL.Shard(2)
	if reborn == nil {
		t.Fatal("shard 2 missing after final grow")
	}
	before := client.Stats().Endpoints[reborn.Name()].Retries
	failNext(reborn.Name(), "sqs.SendMessage")
	if _, err := reborn.SendMessage([]byte("probe")); err != nil {
		t.Fatalf("retry did not absorb the forced fault: %v", err)
	}
	after := client.Stats().Endpoints[reborn.Name()].Retries
	if after <= before {
		t.Fatalf("reborn endpoint %s did not retry through the shared client (retries %d -> %d)",
			reborn.Name(), before, after)
	}
	// The chaos negative control: without the layer the same fault is the
	// caller's to see. (A nil *Client stored as a non-nil interface would
	// panic here instead.)
	dep.SetResilience(nil)
	failNext(reborn.Name(), "sqs.SendMessage")
	if _, err := reborn.SendMessage([]byte("probe")); !sim.IsTransient(err) {
		t.Fatalf("with no retry layer the forced fault surfaced as %v, want it raw", err)
	}
	dep.SetResilience(client)
	if _, err := dep.Reshard(ctx, core.Topology{WALShards: 1, DBShards: 1}); err != nil {
		t.Fatalf("cleanup shrink: %v", err)
	}
}

// TestAutoscaleReshardsKeepCommittedProvenance: what the controller's
// reshards move is provenance, not just load. Transactions committed before
// an overload grow, between the grow and an idle shrink, and after it all
// survive: exactly one item per committed bundle, each on its home shard.
func TestAutoscaleReshardsKeepCommittedProvenance(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Consistency = sim.Strict
	dep := core.NewShardedDeployment(sim.NewEnv(cfg), core.Topology{WALShards: 1, DBShards: 1})
	ctl := New(dep, testCfg)
	ctl.Enable()
	p3 := core.NewP3(dep, core.Options{})
	rnd := sim.NewRand(17)
	events := 0
	commit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			proc := prov.Ref{UUID: uuid.New(rnd), Version: 1}
			file := prov.Ref{UUID: uuid.New(rnd), Version: 1}
			path := fmt.Sprintf("mnt/as/%03d", events)
			bundles := []prov.Bundle{
				{Ref: proc, Type: prov.Process, Name: "gen", Records: []prov.Record{{Attr: prov.AttrName, Value: "gen"}}},
				{Ref: file, Type: prov.File, Name: path, Records: []prov.Record{{Attr: prov.AttrInput, Xref: proc}}},
			}
			if err := p3.Commit(core.FileObject{Path: path, Size: 512, Ref: file}, bundles); err != nil {
				t.Fatal(err)
			}
			events += len(bundles)
		}
		if err := p3.Settle(); err != nil {
			t.Fatal(err)
		}
	}

	commit(20)
	tick(t, dep, ctl, 0) // baseline, after the commits and their settle
	addOps(dep, dep.WAL.Shard(0).Name(), 2000)
	tick(t, dep, ctl, 10*time.Second)
	if k := activeK(dep); k != 4 {
		t.Fatalf("K after overload = %d, want 4", k)
	}
	commit(20)
	for i := 0; i < 6 && activeK(dep) != 1; i++ {
		tick(t, dep, ctl, 60*time.Second)
	}
	if k := activeK(dep); k != 1 {
		t.Fatalf("K after idle = %d, want 1", k)
	}
	commit(20)

	if st := ctl.Status(); st.Grows != 1 || st.Shrinks < 1 {
		t.Fatalf("controller did not reshard both ways: %+v", st)
	}
	if n := dep.DB.ItemCount(); n != events {
		t.Fatalf("items = %d, want exactly %d (lost or duplicated)", n, events)
	}
	if mis, dup, err := core.AuditFabric(dep); err != nil || mis != 0 || dup != 0 {
		t.Fatalf("audit: misplaced=%d duplicates=%d err=%v", mis, dup, err)
	}
}
