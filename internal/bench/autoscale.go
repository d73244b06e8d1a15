package bench

import (
	"fmt"
	"sync"
	"time"

	"passcloud/internal/autoscale"
	"passcloud/internal/core"
	"passcloud/internal/fabric"
)

// The autoscale harness: an open-loop commit workload whose arrival rate
// ramps from a sustainable steady state to a surge that saturates a K=1
// fabric's WAL lane, run twice — once with the autoscale controller closing
// the loop, once with a static K=1 twin. The gate is the SLO the paper's
// elasticity argument rests on: the controller alone (no operator, no
// pre-provisioning) must keep sustained-surge p99 commit latency within a
// small multiple of the steady-state p99, while the static twin demonstrably
// blows through it as its admission queue grows without bound. Commits are
// pure provenance flushes (no data object), so the S3 write gate — a global
// ceiling no amount of sharding relieves — stays out of the picture and the
// per-queue SQS lanes are the capacity the controller actually adds.

// AutoscaleBenchScale is the live-mode time scale of the ramp runs. It is
// deliberately lower than the other live-mode harnesses: commit latencies
// here are sub-second, so a wall-scheduler stall of a few milliseconds
// already shows up in a p99 at high scales.
const AutoscaleBenchScale = 25

// AutoscalePhase is one constant-rate segment of the arrival schedule.
type AutoscalePhase struct {
	Name string  `json:"name"`
	Rate float64 `json:"rate_txn_per_sec"`
	Secs float64 `json:"secs"`
}

// DefaultAutoscalePhases is the pinned ramp: a steady phase well inside one
// SQS lane's 210 req/s admission rate, then a surge holding ~300 txn/s for
// two phases — "surge" absorbs the controller's reaction time (sampling
// interval + reshard), "sustain" is the window the SLO gate judges.
func DefaultAutoscalePhases() []AutoscalePhase {
	return []AutoscalePhase{
		{Name: "steady", Rate: 30, Secs: 60},
		{Name: "surge", Rate: 300, Secs: 45},
		{Name: "sustain", Rate: 300, Secs: 30},
	}
}

// AutoscaleConfig parameterizes one ramp run.
type AutoscaleConfig struct {
	Seed          int64
	Scale         float64 // live-mode time scale; 0 uses AutoscaleBenchScale
	BundlesPerTxn int     // 0 uses 2
	Managed       bool    // false = static K=1 twin, no controller
	Ctl           autoscale.Config
	Phases        []AutoscalePhase
}

// AutoscalePhaseResult is the measured outcome of one arrival phase.
type AutoscalePhaseResult struct {
	Name    string  `json:"name"`
	Rate    float64 `json:"rate_txn_per_sec"`
	Commits int     `json:"commits"`
	P50Ms   float64 `json:"commit_p50_ms"`
	P99Ms   float64 `json:"commit_p99_ms"`
	KAtEnd  int     `json:"k_at_end"` // live DB width when the phase's last arrival launched
}

// AutoscaleRun is the measured outcome of one ramp configuration.
type AutoscaleRun struct {
	Managed    bool                   `json:"managed"`
	Phases     []AutoscalePhaseResult `json:"phases"`
	Grows      int                    `json:"grows"`
	Shrinks    int                    `json:"shrinks"`
	Deferred   int                    `json:"deferred"`
	FinalK     int                    `json:"final_k"`
	MaxBacklog int                    `json:"max_backlog"`

	Events     int `json:"events"`
	ItemCount  int `json:"item_count"`
	Misplaced  int `json:"misplaced"`
	Duplicates int `json:"duplicates"`

	SimSeconds  float64 `json:"sim_seconds"`
	WallSeconds float64 `json:"wall_seconds"`
	TotalOps    int64   `json:"total_ops"`
	CostUSD     float64 `json:"cost_usd"`
}

// PhaseP99 returns the p99 commit latency (ms) of the named phase, or -1.
func (r AutoscaleRun) PhaseP99(name string) float64 {
	for _, p := range r.Phases {
		if p.Name == name {
			return p.P99Ms
		}
	}
	return -1
}

// AutoscaleRamp runs one open-loop ramp: arrivals launch on schedule
// regardless of how slow earlier commits are (latency under overload is the
// measurement, so a closed loop that self-throttles would hide the failure),
// each commit's client-observed latency is attributed to the phase that
// launched it, and the run ends fully settled and audited.
func AutoscaleRamp(c AutoscaleConfig) (AutoscaleRun, error) {
	if c.Scale == 0 {
		c.Scale = AutoscaleBenchScale
	}
	if c.BundlesPerTxn <= 0 {
		c.BundlesPerTxn = 2
	}
	if len(c.Phases) == 0 {
		c.Phases = DefaultAutoscalePhases()
	}
	total := 0
	for _, ph := range c.Phases {
		total += int(ph.Rate * ph.Secs)
	}
	set := commitPipeTxns(c.Seed, total, c.BundlesPerTxn)
	for i := range set {
		set[i].obj = core.FileObject{} // pure provenance flush: skip the S3 leg
	}

	run := AutoscaleRun{Managed: c.Managed, Events: total * c.BundlesPerTxn}
	cfg := fabric.Config{Topology: kWay(1), Workers: 16}
	if c.Managed {
		cfg.Autoscale = &c.Ctl
	}
	f, err := liveFabric(c.Seed, c.Scale, 0, cfg)
	if err != nil {
		return run, err
	}
	defer f.Close()
	env, dep, p3, ctl := f.Env, f.Dep, f.P3, f.Ctl
	wall0 := time.Now()
	f.Start()

	lat := make([][]time.Duration, len(c.Phases))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	t0 := env.Now()
	idx := 0
	for pi, ph := range c.Phases {
		start := env.Now()
		n := int(ph.Rate * ph.Secs)
		for i := 0; i < n; i++ {
			due := start + time.Duration(float64(i)/ph.Rate*float64(time.Second))
			if d := due - env.Now(); d > 0 {
				env.Clock().Sleep(d)
			}
			tx := &set[idx]
			idx++
			wg.Add(1)
			go func(pi int, tx *pipeTxn) {
				defer wg.Done()
				c0 := env.Now()
				err := p3.Commit(tx.obj, tx.bundles)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				lat[pi] = append(lat[pi], env.Now()-c0)
			}(pi, tx)
		}
		run.Phases = append(run.Phases, AutoscalePhaseResult{
			Name: ph.Name, Rate: ph.Rate, KAtEnd: dep.DB.Shards(),
		})
		if ctl != nil {
			if st := ctl.Status(); st.MaxBacklog > run.MaxBacklog {
				run.MaxBacklog = st.MaxBacklog
			}
		}
	}
	wg.Wait()
	if firstErr != nil {
		return run, fmt.Errorf("bench: commit under ramp: %w", firstErr)
	}

	// Freeze the controller before draining: the settle tail is idle time,
	// and a shrink there would fold the very capacity being measured into
	// the drain. ToManual stops it deciding, takes the fabric to the manual
	// clock in the safe order and drains the backlog the surge left.
	run.SimSeconds = (env.Now() - t0).Seconds()
	if err := f.ToManual(); err != nil {
		return run, err
	}
	run.WallSeconds = time.Since(wall0).Seconds()
	run.FinalK = dep.DB.Shards()
	if ctl != nil {
		st := ctl.Status()
		run.Grows, run.Shrinks, run.Deferred = st.Grows, st.Shrinks, st.Deferred
	}

	for pi, l := range lat {
		run.Phases[pi].Commits = len(l)
		run.Phases[pi].P50Ms, run.Phases[pi].P99Ms = pctMs(l)
	}

	usage := env.Meter().Usage()
	run.TotalOps = usage.TotalOps
	run.CostUSD = usage.Cost(env.Config().StorageWindow)

	// Verification outside the measurement, on the manual clock.
	v, err := verify(f, nil)
	if err != nil {
		return run, err
	}
	run.ItemCount, run.Misplaced, run.Duplicates = v.items, v.misplaced, v.duplicates
	if run.ItemCount != run.Events {
		return run, fmt.Errorf("bench: %d items after settle, want %d", run.ItemCount, run.Events)
	}
	return run, nil
}

// AutoscaleComparison is the three-run experiment the SLO gate judges: the
// managed ramp, its static K=1 twin, and the managed steady-load negative
// control (same controller, no surge — it must not flap).
type AutoscaleComparison struct {
	Managed       AutoscaleRun `json:"managed"`
	Static        AutoscaleRun `json:"static"`
	SteadyControl AutoscaleRun `json:"steady_control"`
	BoundRatio    float64      `json:"bound_ratio"` // the SLO: sustain p99 <= bound * steady p99
	ManagedRatio  float64      `json:"managed_sustain_over_steady"`
	StaticRatio   float64      `json:"static_sustain_over_steady"`
}

// AutoscaleCompare runs the pinned three-run experiment at the given scale.
func AutoscaleCompare(seed int64, scale float64) (AutoscaleComparison, error) {
	cmp := AutoscaleComparison{BoundRatio: 2.0}
	var err error
	if cmp.Managed, err = AutoscaleRamp(AutoscaleConfig{Seed: seed, Scale: scale, Managed: true}); err != nil {
		return cmp, fmt.Errorf("managed ramp: %w", err)
	}
	if cmp.Static, err = AutoscaleRamp(AutoscaleConfig{Seed: seed, Scale: scale, Managed: false}); err != nil {
		return cmp, fmt.Errorf("static ramp: %w", err)
	}
	steady := []AutoscalePhase{
		{Name: "steady", Rate: 30, Secs: 30},
		{Name: "hold", Rate: 30, Secs: 30},
		{Name: "sustain", Rate: 30, Secs: 30},
	}
	if cmp.SteadyControl, err = AutoscaleRamp(AutoscaleConfig{Seed: seed, Scale: scale, Managed: true, Phases: steady}); err != nil {
		return cmp, fmt.Errorf("steady control: %w", err)
	}
	if s := cmp.Managed.PhaseP99("steady"); s > 0 {
		cmp.ManagedRatio = cmp.Managed.PhaseP99("sustain") / s
	}
	if s := cmp.Static.PhaseP99("steady"); s > 0 {
		cmp.StaticRatio = cmp.Static.PhaseP99("sustain") / s
	}
	return cmp, nil
}
