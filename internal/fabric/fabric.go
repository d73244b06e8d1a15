package fabric

import (
	"cmp"
	"context"
	"fmt"
	"sync"
	"time"

	"passcloud/internal/autoscale"
	"passcloud/internal/core"
	"passcloud/internal/frontdoor"
	"passcloud/internal/query"
	"passcloud/internal/resilient"
	"passcloud/internal/sim"
	"passcloud/internal/translog"
)

// Intervals of the loops Start runs, in simulated time.
const (
	daemonPoll      = time.Second     // an idle commit daemon's sleep between polls
	checkpointEvery = time.Second     // sequencer tick
	controllerEvery = 5 * time.Second // autoscale sampling tick
)

// Config says what to build. The zero value of every field but Sim means
// "the seed's default": K=1, one commit daemon, no faults, the deployment's
// default client policy, and none of the optional layers.
type Config struct {
	// Sim configures the environment and is passed to sim.NewEnv untouched.
	Sim sim.Config
	// Topology sizes the WAL queue and provenance domain shard sets.
	Topology core.Topology
	// Workers is the size of the P3 commit-daemon pool.
	Workers int
	// DaemonPoll, when positive, replaces the one second an idle commit
	// daemon sleeps between polls.
	DaemonPoll time.Duration
	// Faults, when non-nil, is armed before anything commits.
	Faults sim.FaultPlan
	// Resilience, when not the zero Policy, replaces the deployment's
	// default client policy.
	Resilience resilient.Policy

	// Tenants, when non-empty, puts a front door configured by Door before
	// P3 and registers each tenant on it, in order.
	Tenants []Tenant
	Door    frontdoor.Config
	// Translog attaches a transparency log to the commit bus; Start runs its
	// sequencer.
	Translog bool
	// CacheEntries, when positive, builds a query engine with a cache of
	// that many entries subscribed to the commit bus.
	CacheEntries int
	// Autoscale, when non-nil, builds an enabled controller; Start runs its
	// loop.
	Autoscale *autoscale.Config
}

// Tenant names one front-door tenant and its admission quota.
type Tenant struct {
	ID    string
	Quota frontdoor.Quota
}

// Fabric is one assembled stack. The layer fields are nil when Config did
// not ask for them.
type Fabric struct {
	Env     *sim.Env
	Dep     *core.Deployment
	P3      *core.P3
	Door    *frontdoor.Door
	Tenants []*frontdoor.Tenant // parallel to Config.Tenants
	Log     *translog.Log
	Engine  *query.Engine
	Ctl     *autoscale.Controller

	cfg    Config
	detach []func() // commit-bus subscriptions, dropped by Close and Recover

	mu             sync.Mutex // guards what Start started
	pool, seq, ctl *loop

	manual    sync.Once
	manualErr error
	closed    sync.Once
}

// New builds the stack in the one order every layer's constructor is
// satisfied by (see the package comment). Nothing runs until Start.
func New(cfg Config) (*Fabric, error) {
	env := sim.NewEnv(cfg.Sim)
	dep := core.NewShardedDeployment(env, cfg.Topology)
	if cfg.Resilience != (resilient.Policy{}) {
		dep.SetResilience(resilient.New(env, cfg.Resilience))
	}
	if cfg.Faults != nil {
		env.InstallFaults(cfg.Faults)
	}
	f := &Fabric{Env: env, Dep: dep, cfg: cfg}
	var log *translog.Log
	if cfg.Translog {
		log = translog.New(env, dep.Store, "")
	}
	if err := f.build(log); err != nil {
		return nil, err
	}
	return f, nil
}

// build makes every process layer over f's environment and deployment — P3,
// the front door and its tenants, the cache-subscribed engine, the
// controller — and attaches log (nil without one) and the cache to the
// commit bus. New and Recover share it, so a restart builds what a boot
// does.
func (f *Fabric) build(log *translog.Log) error {
	cfg, dep := f.cfg, f.Dep
	f.P3 = core.NewP3(dep, core.Options{CommitWorkers: cfg.Workers})
	f.Door, f.Tenants = nil, nil
	if len(cfg.Tenants) > 0 {
		f.Door = frontdoor.New(dep, f.P3, cfg.Door)
		for _, t := range cfg.Tenants {
			f.Tenants = append(f.Tenants, f.Door.Tenant(t.ID, t.Quota))
		}
	}
	if f.Log = log; log != nil {
		f.detach = append(f.detach, log.Attach(dep.Commits))
	}
	if cfg.CacheEntries > 0 {
		f.Engine = query.New(dep, core.BackendSDB)
		f.Engine.SetCache(query.NewCache(cfg.CacheEntries))
		if err := f.Engine.Subscribe(); err != nil {
			return fmt.Errorf("fabric: subscribing the query cache: %w", err)
		}
		f.detach = append(f.detach, f.Engine.Unsubscribe)
	}
	if cfg.Autoscale != nil {
		f.Ctl = autoscale.New(dep, *cfg.Autoscale)
		f.Ctl.Enable()
	}
	return nil
}

// loop is one background goroutine with a stop signal and a join. The
// methods accept a nil loop, which has nothing to stop.
type loop struct {
	quit chan struct{}
	done chan struct{}
	once sync.Once
}

func startLoop(run func(stop <-chan struct{})) *loop {
	l := &loop{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		run(l.quit)
	}()
	return l
}

func (l *loop) signal() {
	if l != nil {
		l.once.Do(func() { close(l.quit) })
	}
}

func (l *loop) stop() {
	if l != nil {
		l.signal()
		<-l.done
	}
}

// Start runs the commit-daemon pool and, for the layers that have one, the
// log's sequencer and the controller's loop. Live clock only; a second call
// does nothing.
func (f *Fabric) Start() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.pool != nil {
		return
	}
	p3, poll := f.P3, cmp.Or(f.cfg.DaemonPoll, daemonPoll)
	f.pool = startLoop(func(quit <-chan struct{}) { p3.RunDaemon(quit, poll) })
	if f.Log != nil {
		f.seq = startLoop(func(quit <-chan struct{}) { f.Log.Run(quit, checkpointEvery) })
	}
	if f.Ctl != nil {
		f.ctl = startLoop(func(quit <-chan struct{}) { f.Ctl.Run(context.Background(), quit, controllerEvery) })
	}
}

func (f *Fabric) started() (pool, seq, ctl *loop) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pool, f.seq, f.ctl
}

// Stop stops and joins the commit-daemon pool — RunDaemon has returned, the
// point from which P3.Settle reaches a final state and the meter stops
// moving — then the sequencer (whose last act is a final checkpoint). It is
// what a measured phase on the live clock ends with before its P3.Settle;
// the controller keeps running until ToManual. Idempotent.
func (f *Fabric) Stop() {
	pool, seq, _ := f.started()
	pool.stop()
	seq.stop()
}

// halt is the stop sequence ToManual and Recover share (package comment,
// "stop before flip"): signal the controller, stop and join the pool and the
// sequencer, flip the clock to manual. It returns the controller's loop,
// signalled but not yet joined, for the caller to join.
func (f *Fabric) halt() *loop {
	_, _, ctl := f.started()
	ctl.signal()
	f.Stop()
	f.Env.Clock().SetScale(0)
	return ctl
}

// ToManual takes a live fabric to the manual clock for verification, in the
// one safe order (package comment, "stop before flip"), and leaves it
// drained: the last thing it does is a P3.Settle nothing ran beside.
// Idempotent; every call returns the first call's error.
func (f *Fabric) ToManual() error {
	f.manual.Do(func() { f.manualErr = f.toManual() })
	return f.manualErr
}

func (f *Fabric) toManual() error {
	ctl := f.halt()
	if inj := f.Env.Faults(); inj != nil {
		inj.SetPlan(nil)
	}
	// Drain what the pool left. A controller inside Deployment.Reshard holds the
	// fabric until the WAL it is copying behind has drained, so it is joined
	// between Settle rounds, and one more round follows whatever it did last.
	for joined := ctl == nil; ; {
		if err := f.P3.Settle(); err != nil || joined {
			return err
		}
		select {
		case <-ctl.done:
			joined = true
		default:
		}
	}
}

// RecoverReport says what each step of Recover found: the WAL messages the
// dead processes left, the reopened log's size, the resharder's resume and
// what it moved, and what the final Settle left.
type RecoverReport struct {
	Outstanding int
	LogSize     int
	Resumed     bool
	Reshard     core.ReshardStats
	Pending     int
	WAL         int
}

// Recover is the one restart, after any process of the fabric died. Over
// what survives — the environment, the deployment and its stores — it
//  1. stops and joins every loop as ToManual does; the fault plan stays armed;
//  2. sleeps the WAL's visibility timeout, so every message a dead process
//     had received is delivered again;
//  3. rolls the log forward (the bus does not replay what only the dead
//     sequencer held) and reopens it cold, failing if the heads differ;
//  4. rebuilds every process layer with New's code and re-attaches the bus;
//  5. resumes a dead resharder, lets the controller close a decided record
//     (one Step) and settles.
//
// Like ToManual, it leaves the fabric on the manual clock with nothing
// running, for verification: a recovered fabric is not started again.
func (f *Fabric) Recover(ctx context.Context) (RecoverReport, error) {
	var rep RecoverReport
	f.halt().stop()
	f.Env.Clock().Sleep(f.Dep.WAL.Visibility())
	rep.Outstanding = f.Dep.WAL.Len()

	var log *translog.Log
	if f.Log != nil {
		head, err := f.Checkpoint()
		if err != nil {
			return rep, err
		}
		f.Dep.Settle() // Open reads what the checkpoint wrote
		if log, err = translog.Open(f.Env, f.Dep.Store, ""); err != nil {
			return rep, fmt.Errorf("fabric: reopening the log: %w", err)
		}
		if got := log.Head(); got != head {
			return rep, fmt.Errorf("fabric: reopened log head %+v differs from the rolled-forward %+v", got, head)
		}
		rep.LogSize = head.TreeSize
	}
	for _, d := range f.detach {
		d()
	}
	f.detach = nil
	if err := f.build(log); err != nil {
		return rep, err
	}

	var err error
	if rep.Reshard, rep.Resumed, err = core.ResumeReshard(ctx, f.Dep); err != nil {
		return rep, fmt.Errorf("fabric: resuming the reshard: %w", err)
	}
	if f.Ctl != nil {
		if err := f.Ctl.Step(ctx); err != nil {
			return rep, fmt.Errorf("fabric: controller step: %w", err)
		}
	}
	err = f.P3.Settle()
	rep.Pending, rep.WAL = f.P3.PendingTxns(), f.Dep.WAL.Len()
	return rep, err
}

// Checkpoint persists the log through its current size, retrying through
// transient faults (every stage is idempotent, so a retry rolls forward).
func (f *Fabric) Checkpoint() (translog.SignedHead, error) {
	var h translog.SignedHead
	var err error
	for attempt := 0; attempt < 200; attempt++ {
		if h, err = f.Log.Checkpoint(); err == nil {
			return h, nil
		}
	}
	return h, fmt.Errorf("fabric: checkpoint never succeeded: %w", err)
}

// Close stops everything Start started (by way of ToManual, so the fabric
// ends on the manual clock and can still be read) and drops the commit-bus
// subscriptions. Idempotent; it returns ToManual's error.
func (f *Fabric) Close() error {
	err := f.ToManual()
	f.closed.Do(func() {
		for _, d := range f.detach {
			d()
		}
	})
	return err
}
