package frontdoor

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/resilient"
	"passcloud/internal/sim"
)

// testFabric builds a manual-clock sharded deployment with a door over it.
func testFabric(t *testing.T, k int, cfg Config) (*Door, *core.Deployment, *core.P3) {
	t.Helper()
	simCfg := sim.DefaultConfig()
	simCfg.Consistency = sim.Strict
	env := sim.NewEnv(simCfg)
	dep := core.NewShardedDeployment(env, core.Topology{WALShards: k, DBShards: k})
	p3 := core.NewP3(dep, core.Options{CommitWorkers: 2})
	return New(dep, p3, cfg), dep, p3
}

// tenantTxn builds one small transaction whose uuids come from the tenant's
// banded mint.
func tenantTxn(tn *Tenant, i int) (core.FileObject, []prov.Bundle) {
	path := fmt.Sprintf("mnt/%s/%04d", tn.ID(), i)
	procRef := prov.Ref{UUID: tn.NewUUID(), Version: 1}
	fileRef := prov.Ref{UUID: tn.NewUUID(), Version: 1}
	bundles := []prov.Bundle{
		{Ref: procRef, Type: prov.Process, Name: "prog", Records: []prov.Record{
			{Attr: prov.AttrType, Value: "proc"},
			{Attr: prov.AttrName, Value: "prog"},
		}},
		{Ref: fileRef, Type: prov.File, Name: path, Records: []prov.Record{
			{Attr: prov.AttrType, Value: "file"},
			{Attr: prov.AttrName, Value: path},
			{Attr: prov.AttrInput, Xref: procRef},
		}},
	}
	return core.FileObject{Path: path, Size: 1024, Ref: fileRef}, bundles
}

// TestAdmissionBurstAndShed pins the GCRA lifecycle: burst admits
// immediately, a moderate backlog queues (a bounded virtual-time wait), a
// deep backlog sheds with typed backpressure that does not advance the
// admission state, and every outcome lands in the per-tenant meter.
func TestAdmissionBurstAndShed(t *testing.T) {
	d, _, _ := testFabric(t, 1, Config{})
	tn := d.Tenant("a", Quota{Rate: 100, Burst: 4, MaxQueue: 10, Priority: PriorityHigh})
	interval := tn.quota.interval()

	// Burst admits without waiting.
	for i := 0; i < 4; i++ {
		t0 := d.env.Now()
		if err := tn.admit(); err != nil {
			t.Fatalf("burst admit %d: %v", i, err)
		}
		if d.env.Now() != t0 {
			t.Fatalf("burst admit %d slept", i)
		}
	}

	// A moderate backlog queues: the commit waits out its pacing delay.
	tn.mu.Lock()
	tn.tat = d.env.Now() + 6*interval
	tn.mu.Unlock()
	t0 := d.env.Now()
	if err := tn.admit(); err != nil {
		t.Fatalf("queued admit: %v", err)
	}
	if d.env.Now() == t0 {
		t.Fatal("queued admit did not wait")
	}

	// A backlog past the queue bound sheds, typed.
	tn.mu.Lock()
	tn.tat = d.env.Now() + 40*interval
	before := tn.tat
	tn.mu.Unlock()
	err := tn.admit()
	var oc *OverCapacityError
	if !errors.As(err, &oc) || !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("deep-backlog admit = %v, want OverCapacityError", err)
	}
	if oc.Tenant != "a" || oc.RetryAfter <= 0 {
		t.Fatalf("backpressure payload = %+v", oc)
	}
	tn.mu.Lock()
	after := tn.tat
	tn.mu.Unlock()
	if after != before {
		t.Fatal("shed advanced the admission state")
	}

	// Sleeping the hint makes the retry admissible.
	d.env.Clock().Advance(oc.RetryAfter)
	if err := tn.admit(); err != nil {
		t.Fatalf("post-backoff admit: %v", err)
	}

	ops := d.env.Meter().Usage().OpsByTenant["a"]
	if ops.Admitted != 6 || ops.Queued != 1 || ops.Shed != 1 {
		t.Fatalf("tenant counters = %+v, want 6 admitted / 1 queued / 1 shed", ops)
	}
}

// TestPrioritySheddingOrder pins priority-aware load shedding: at the same
// backlog depth, a low-priority tenant is shed while a high-priority one
// still queues.
func TestPrioritySheddingOrder(t *testing.T) {
	d, _, _ := testFabric(t, 1, Config{})
	low := d.Tenant("low", Quota{Rate: 100, Burst: 1, MaxQueue: 10, Priority: PriorityLow})
	high := d.Tenant("high", Quota{Rate: 100, Burst: 1, MaxQueue: 10, Priority: PriorityHigh})
	depth := 5 * low.quota.interval() // depth 5: past low's 3-slot share, inside high's 10

	low.mu.Lock()
	low.tat = d.env.Now() + depth
	low.mu.Unlock()
	if err := low.admit(); !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("low-priority admit = %v, want shed", err)
	}

	high.mu.Lock()
	high.tat = d.env.Now() + depth
	high.mu.Unlock()
	if err := high.admit(); err != nil {
		t.Fatalf("high-priority admit = %v, want queued", err)
	}
}

// TestTenantCommitCoShards pins the placement story end to end: every WAL
// packet of a tenant's commits lands on the band's home shard, the
// provenance reads back intact via the ordinary uuid-routed path, and the
// fabric audit finds nothing misplaced.
func TestTenantCommitCoShards(t *testing.T) {
	const k = 4
	d, dep, p3 := testFabric(t, k, Config{CombineWindow: -1})
	tn := d.Tenant("alice", Quota{Rate: 1000, Burst: 64})

	type committed struct {
		obj     core.FileObject
		bundles []prov.Bundle
	}
	var txns []committed
	for i := 0; i < 6; i++ {
		obj, bundles := tenantTxn(tn, i)
		if err := tn.Commit(obj, bundles); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		txns = append(txns, committed{obj, bundles})
	}
	if err := p3.Settle(); err != nil {
		t.Fatal(err)
	}

	// Every transaction uuid was minted in the band, so all WAL packets
	// routed to the band's home shard.
	homeShard := dep.WAL.Directory().Active().RouteHash(tn.band.Start())
	usage := d.env.Meter().Usage()
	homeOps := usage.OpsByEndpoint[fmt.Sprintf("%s-%d", core.WALName, homeShard)]
	if homeOps == 0 {
		t.Fatalf("home WAL shard %d saw no traffic", homeShard)
	}

	// Items co-shard and read back via the ordinary uuid-routed path.
	for _, tx := range txns {
		for _, b := range tx.bundles {
			if got := sim.BandOf(b.Ref.UUID.String()); got != tn.band {
				t.Fatalf("uuid %s minted outside tenant band: %d != %d", b.Ref.UUID, got, tn.band)
			}
			back, err := core.ReadProvenance(dep, core.BackendSDB, b.Ref.UUID)
			if err != nil || len(back) == 0 {
				t.Fatalf("read-back of %s: %v (%d bundles)", b.Ref.UUID, err, len(back))
			}
		}
		if _, err := dep.Store.Get(core.DataKey(tx.obj.Path)); err != nil {
			t.Fatalf("data of %s: %v", tx.obj.Path, err)
		}
	}
	if mis, dup, err := core.AuditFabric(dep); err != nil || mis != 0 || dup != 0 {
		t.Fatalf("audit: mis=%d dup=%d err=%v", mis, dup, err)
	}
	if n := dep.WAL.Len(); n != 0 {
		t.Fatalf("%d WAL messages left", n)
	}
}

// TestTenantRetryIsolation pins the tenant dimension of the retry layer:
// with tenant A's home WAL shard hard-failing, A's breaker there opens while
// tenant B — whose band homes on the other shard — commits clean, with its
// retry state untouched by A's storm.
func TestTenantRetryIsolation(t *testing.T) {
	const k = 2
	d, dep, p3 := testFabric(t, k, Config{CombineWindow: -1})
	dep.SetResilience(resilient.New(dep.Env, resilient.Policy{MaxAttempts: 2, BreakerThreshold: 3, RetryBudget: 8}))

	// Pick tenant ids whose bands route to different WAL shards.
	epoch := dep.WAL.Directory().Active()
	idOn := func(shard int) string {
		for i := 0; ; i++ {
			id := fmt.Sprintf("tenant%d", i)
			if epoch.RouteHash(BandFor(id).Start()) == shard {
				return id
			}
		}
	}
	a := d.Tenant(idOn(0), Quota{Rate: 1000, Burst: 64})
	b := d.Tenant(idOn(1), Quota{Rate: 1000, Burst: 64})

	// A's home WAL queue fails every request; everything else is clean.
	aHome := fmt.Sprintf("%s-0", core.WALName)
	d.env.InstallFaults(sim.FaultPlan{aHome: {Prob: 1}})

	var aErr error
	for i := 0; i < 12; i++ {
		obj, bundles := tenantTxn(a, i)
		if err := a.Commit(obj, bundles); err != nil {
			aErr = err
		}
		obj, bundles = tenantTxn(b, i)
		if err := b.Commit(obj, bundles); err != nil {
			t.Fatalf("tenant B commit %d failed during A's storm: %v", i, err)
		}
	}
	if aErr == nil {
		t.Fatal("tenant A committed despite a hard-failing home shard")
	}
	if !errors.Is(aErr, resilient.ErrCircuitOpen) {
		t.Fatalf("tenant A's last error = %v, want its breaker open", aErr)
	}

	stats := dep.Res.Stats()
	sa := stats.Tenants[a.ID()]
	sb := stats.Tenants[b.ID()]
	if sa.BreakerOpens == 0 {
		t.Fatalf("tenant A stats = %+v, want its breaker opened", sa)
	}
	if sb.Retries != 0 || sb.BreakerOpens != 0 {
		t.Fatalf("tenant B stats = %+v, want no retries or breaker activity", sb)
	}

	// B's work drains clean.
	d.env.Faults().SetPlan(nil)
	if err := p3.Settle(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistentFaultCostsMaxAttempts pins the one retry layer: a door
// commit whose home WAL queue fails every request makes exactly MaxAttempts
// requests of it — the endpoint retries the flush, nothing above it does —
// and the attempts are the tenant's.
func TestPersistentFaultCostsMaxAttempts(t *testing.T) {
	d, dep, _ := testFabric(t, 1, Config{})
	tn := d.Tenant("a", Quota{Rate: 1000, Burst: 64})
	d.env.InstallFaults(sim.FaultPlan{core.WALName: {Prob: 1}})

	obj, bundles := tenantTxn(tn, 0)
	if err := tn.Commit(obj, bundles); !sim.IsTransient(err) {
		t.Fatalf("commit against a failing WAL = %v, want the transient error", err)
	}
	want := resilient.DefaultMaxAttempts
	if got := d.env.Meter().Usage().OpsByEndpoint[core.WALName]; got != int64(want) {
		t.Fatalf("WAL requests per door commit = %d, want MaxAttempts = %d", got, want)
	}
	// The tenant's attempts: its temporary object's one PUT, then the flush.
	if st := dep.Res.Stats().Tenants[tn.ID()]; st.Attempts != int64(1+want) {
		t.Fatalf("tenant stats = %+v, want %d attempts", st, 1+want)
	}
}

// TestCombinerPacksBatches pins WAL write combining on a live clock: many
// concurrent single-chunk commits of one tenant flush in far fewer
// SendMessageBatch calls than commits, and everything still lands.
func TestCombinerPacksBatches(t *testing.T) {
	simCfg := sim.DefaultConfig()
	simCfg.Consistency = sim.Strict
	simCfg.TimeScale = 100 // live clock: 1s virtual = 10ms wall
	env := sim.NewEnv(simCfg)
	dep := core.NewShardedDeployment(env, core.Topology{WALShards: 1, DBShards: 1})
	p3 := core.NewP3(dep, core.Options{CommitWorkers: 2})
	d := New(dep, p3, Config{CombineWindow: 2 * time.Second})
	tn := d.Tenant("combine", Quota{Rate: 10000, Burst: 1000})

	const commits = 16
	var wg sync.WaitGroup
	errs := make([]error, commits)
	for i := 0; i < commits; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			obj, bundles := tenantTxn(tn, i)
			errs[i] = tn.Commit(obj, bundles)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	env.Clock().SetScale(0)
	if err := p3.Settle(); err != nil {
		t.Fatal(err)
	}

	usage := env.Meter().Usage()
	batches := usage.OpsByKind["sqs.SendMessageBatch"]
	if batches >= commits {
		t.Fatalf("combiner sent %d batch calls for %d commits — no combining", batches, commits)
	}
	if usage.OpsByKind["sqs.SendMessage"] != 0 {
		t.Fatalf("combiner fell back to singles: %d", usage.OpsByKind["sqs.SendMessage"])
	}
	if n := dep.WAL.Len(); n != 0 {
		t.Fatalf("%d WAL messages left", n)
	}
	if n := p3.PendingTxns(); n != 0 {
		t.Fatalf("%d transactions pending", n)
	}
}

// TestDisableIsolationBypass pins the negative-control path: with isolation
// off, commits reach the protocol directly — no quotas, no tenant metering,
// no tenant-scoped retries — while banded placement still applies.
func TestDisableIsolationBypass(t *testing.T) {
	d, dep, p3 := testFabric(t, 2, Config{DisableIsolation: true})
	tn := d.Tenant("raw", Quota{Rate: 0.001, Burst: 1, MaxQueue: 1})

	// A quota this small would shed almost everything; the bypass ignores it.
	for i := 0; i < 5; i++ {
		obj, bundles := tenantTxn(tn, i)
		if err := tn.Commit(obj, bundles); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if err := p3.Settle(); err != nil {
		t.Fatal(err)
	}
	if ops := d.env.Meter().Usage().OpsByTenant; len(ops) != 0 {
		t.Fatalf("isolation-disabled door metered tenants: %+v", ops)
	}
	if st := dep.Res.Stats(); len(st.Tenants) != 0 {
		t.Fatalf("isolation-disabled door made requests for a tenant: %+v", st.Tenants)
	}
}

// TestBandForStability pins that tenant bands derive from the id alone, so
// placement survives process restarts.
func TestBandForStability(t *testing.T) {
	if BandFor("alice") != sim.BandOf("tenant/alice") {
		t.Fatal("BandFor does not match the documented derivation")
	}
	if BandFor("alice") == BandFor("bob") && BandFor("alice") == BandFor("carol") {
		t.Fatal("suspiciously colliding bands") // not impossible, but these three differ
	}
}
