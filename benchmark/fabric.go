package main

import (
	"fmt"
	"sync"
	"time"

	"passcloud/internal/autoscale"
	"passcloud/internal/cloud/store"
	"passcloud/internal/core"
	"passcloud/internal/frontdoor"
	"passcloud/internal/prov"
	"passcloud/internal/query"
	"passcloud/internal/sim"
	"passcloud/internal/translog"
)

// liveScale is the one time scale of the live workloads: ten simulated
// seconds per wall second. It is a constant of the benchmark, not a flag —
// a number measured at another scale is a different number (the scaled
// clock multiplies host scheduling into every simulated latency).
const liveScale = 10

// fabricSpec says which layers a workload wires together.
type fabricSpec struct {
	seed        int64 // benchmark seed; the env seed is derived from it
	k           int   // WAL and DB shards
	consistency sim.Consistency
	workers     int // P3 commit-daemon pool size

	tenants  []tenantSpec  // non-empty: commits go through the front door
	translog bool          // attach the transparency log to the commit bus
	cache    int           // >0: a subscribed query cache of this many entries
	control  bool          // build an autoscale controller (sampling-only)
	faults   sim.FaultPlan // armed when non-nil
}

type tenantSpec struct {
	id    string
	quota frontdoor.Quota
}

// fabric is one assembled stack. Nothing in the repository wires these
// layers together yet (ROADMAP item 3), so the benchmark does it here, from
// each package's public constructors.
type fabric struct {
	spec    fabricSpec
	env     *sim.Env
	dep     *core.Deployment
	p3      *core.P3
	door    *frontdoor.Door
	tenants []*frontdoor.Tenant
	log     *translog.Log
	engine  *query.Engine // cached and subscribed, when spec.cache > 0
	ctl     *autoscale.Controller

	detach []func()

	daemonMu   sync.Mutex
	daemonStop chan struct{}
	daemonWG   sync.WaitGroup
}

func newFabric(s fabricSpec) (*fabric, error) {
	cfg := sim.DefaultConfig()
	cfg.Seed = envSeed(s.seed)
	cfg.Consistency = s.consistency
	env := sim.NewEnv(cfg)
	dep := core.NewShardedDeployment(env, core.Topology{WALShards: s.k, DBShards: s.k})
	if s.faults != nil {
		env.InstallFaults(s.faults)
	}
	f := &fabric{spec: s, env: env, dep: dep}
	f.p3 = core.NewP3(dep, core.Options{CommitWorkers: s.workers})
	if len(s.tenants) > 0 {
		f.door = frontdoor.New(dep, f.p3, frontdoor.Config{})
		for _, t := range s.tenants {
			f.tenants = append(f.tenants, f.door.Tenant(t.id, t.quota))
		}
	}
	if s.translog {
		f.log = translog.New(env, dep.Store, "")
		f.detach = append(f.detach, f.log.Attach(dep.Commits))
	}
	if s.cache > 0 {
		f.engine = query.New(dep, core.BackendSDB)
		f.engine.SetCache(query.NewCache(s.cache))
		if err := f.engine.Subscribe(); err != nil {
			return nil, err
		}
		f.detach = append(f.detach, f.engine.Unsubscribe)
	}
	if s.control {
		// Sampling-only: thresholds no load in this benchmark reaches, so
		// Step samples, publishes gauges and holds. See README, "Why the
		// controller only samples".
		f.ctl = autoscale.New(dep, autoscale.Config{
			MinK: core.MaxShards, MaxK: core.MaxShards, // no width below or above to move to
			GrowOpsPerShard: 1e12, ShrinkOpsPerShard: 1e-12, TargetOpsPerShard: 1,
			GrowBacklogPerShard: 1 << 40,
		})
		f.ctl.Enable()
	}
	return f, nil
}

// commit is the client's entry into the stack: the tenant's front door when
// there is one, bare P3 otherwise.
func (f *fabric) commit(t txn) error {
	if f.door != nil {
		return f.tenants[t.tenant].Commit(t.obj, t.bundles)
	}
	return f.p3.Commit(t.obj, t.bundles)
}

// goLive switches the fabric, built and preloaded on the manual clock, to
// the scaled clock.
func (f *fabric) goLive() { f.env.Clock().SetScale(liveScale) }

// startDaemons runs the commit-daemon pool until stopDaemons. Live clock
// only.
func (f *fabric) startDaemons(poll time.Duration) {
	f.daemonMu.Lock()
	defer f.daemonMu.Unlock()
	f.daemonStop = make(chan struct{})
	stop := f.daemonStop
	f.daemonWG.Add(1)
	go func() {
		defer f.daemonWG.Done()
		f.p3.RunDaemon(stop, poll)
	}()
}

// stopDaemons stops and joins every daemon; it is idempotent.
func (f *fabric) stopDaemons() {
	f.daemonMu.Lock()
	stop := f.daemonStop
	f.daemonStop = nil
	f.daemonMu.Unlock()
	if stop != nil {
		close(stop)
		f.daemonWG.Wait()
	}
}

// toManual flips a live fabric to the manual clock for the oracle. The
// daemon pools are stopped first, always: an idle RunDaemon on a manual
// clock advances simulated time by its poll interval on every spin and runs
// the clock past the WAL's four-day retention within milliseconds, silently
// expiring whatever was still queued.
func (f *fabric) toManual() {
	f.stopDaemons()
	f.env.Clock().SetScale(0)
	if inj := f.env.Faults(); inj != nil {
		inj.SetPlan(nil)
	}
}

func (f *fabric) close() {
	f.stopDaemons()
	for _, d := range f.detach {
		d()
	}
	f.detach = nil
}

// checkpoint persists the log through its current size, retrying through
// transient faults (every stage is idempotent).
func (f *fabric) checkpoint() (translog.SignedHead, error) {
	var h translog.SignedHead
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		if h, err = f.log.Checkpoint(); err == nil {
			return h, nil
		}
	}
	return h, fmt.Errorf("checkpoint never succeeded: %w", err)
}

// tenantProtocol adapts a front-door tenant to core.Protocol so pasfs can
// commit through admission, tenant-scoped retries and the write combiner —
// the paper's client path with the multi-tenant layer in it.
type tenantProtocol struct {
	t  *frontdoor.Tenant
	p3 *core.P3
	// onCommit, when set, is told of every commit handed to the protocol
	// (the harness counts and times them from outside).
	onCommit func(obj core.FileObject, bundles []prov.Bundle, call func() error) error
}

func (p tenantProtocol) Name() string { return "P3/frontdoor" }

func (p tenantProtocol) Commit(obj core.FileObject, bundles []prov.Bundle) error {
	call := func() error { return p.t.Commit(obj, bundles) }
	if p.onCommit != nil {
		return p.onCommit(obj, bundles, call)
	}
	return call()
}

func (p tenantProtocol) Delete(path string) error                { return p.p3.Delete(path) }
func (p tenantProtocol) Fetch(path string) (store.Object, error) { return p.p3.Fetch(path) }
func (p tenantProtocol) Settle() error                           { return p.p3.Settle() }
