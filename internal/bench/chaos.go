package bench

import (
	"fmt"
	"runtime"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/fabric"
	"passcloud/internal/resilient"
	"passcloud/internal/sim"
)

// The chaos harness: drive the pinned commit + reshard + query workload
// through P3 while every service endpoint injects transient faults, and
// prove the resilient client layer absorbs all of it — the faulted fabric
// must hold exactly one copy of every provenance item and read back
// byte-identical to its fault-free twin, the scatter-gather read path must
// keep its tail latency in the same regime, and the same workload with
// resilience disabled must demonstrably fail. This is the robustness
// analogue of the reshard benchmark's speedup gate: the number that matters
// is goodput (committed events per simulated second) under abuse.

// ChaosBenchScale is the live-mode time scale of the large goodput runs.
const ChaosBenchScale = 50

// ChaosConfig parameterizes one chaos run.
type ChaosConfig struct {
	Seed          int64
	Txns          int
	BundlesPerTxn int
	Workers       int     // P3 commit-daemon pool size
	ClientConns   int     // concurrent client commits
	Scale         float64 // live-mode time scale; 0 uses ChaosBenchScale
	FromK         int     // starting topology (WAL and DB shards)
	ToK           int     // reshard target; == FromK skips the reshard phase
	FaultProb     float64 // per-request fault probability; 0 = fault-free twin
	ApplyProb     float64 // fraction of mutating faults that are ambiguous
	DupProb       float64 // queue duplicate-delivery probability
	Resilient     bool    // false = negative control: raw faults, no retries
	Queries       int     // measured scatter-gather fan-outs after settle
	// HedgeAfter overrides the resilient policy's hedge threshold (0 keeps
	// the default); both twins of an equivalence pair should use the same
	// value so the latency comparison is fair.
	HedgeAfter time.Duration
}

// ChaosRun is the measured outcome of one chaos configuration.
type ChaosRun struct {
	FaultProb     float64 `json:"fault_prob"`
	ApplyProb     float64 `json:"apply_prob"`
	DupProb       float64 `json:"dup_prob"`
	Resilient     bool    `json:"resilient"`
	FromK         int     `json:"from_k"`
	ToK           int     `json:"to_k"`
	Txns          int     `json:"txns"`
	BundlesPerTxn int     `json:"bundles_per_txn"`
	Events        int     `json:"events"`
	Workers       int     `json:"workers"`

	CommitErrors int    `json:"commit_errors"` // failed client commits (negative control)
	FirstError   string `json:"first_error,omitempty"`

	SimSeconds  float64 `json:"sim_seconds"` // commit+reshard+settle, simulated
	WallSeconds float64 `json:"wall_seconds"`
	Goodput     float64 `json:"goodput_events_per_sim_sec"`

	QueryP50Ms float64 `json:"query_p50_ms"` // scatter-gather fan-out, simulated
	QueryP99Ms float64 `json:"query_p99_ms"`

	Faults        int64 `json:"faults"` // injected by the plan
	Retries       int64 `json:"retries"`
	Hedges        int64 `json:"hedges"`
	BreakerOpens  int64 `json:"breaker_opens"`
	BudgetDenials int64 `json:"budget_denials"`

	ItemCount  int     `json:"item_count"`
	Misplaced  int     `json:"misplaced"`
	Duplicates int     `json:"duplicates"`
	TotalOps   int64   `json:"total_ops"`
	CostUSD    float64 `json:"cost_usd"`
	ProvDigest string  `json:"prov_digest"`
}

// ChaosCommitQueryReshard runs one chaos configuration: commit half the
// transaction set, grow the fabric FromK→ToK while the other half commits,
// settle, then measure Queries scatter-gather fan-outs and digest every
// object's read-back provenance. With Resilient false it degenerates to the
// negative control — clients face raw injected faults with no retry layer,
// no commit daemon runs, and the run returns after the commit phase with
// the error count (completing the workload would stall: a faulted fabric
// without retries never drains).
func ChaosCommitQueryReshard(c ChaosConfig) (ChaosRun, error) {
	if c.ClientConns <= 0 {
		c.ClientConns = 64
	}
	if c.Scale == 0 {
		c.Scale = ChaosBenchScale
	}
	if c.Queries <= 0 {
		c.Queries = 20
	}
	run := ChaosRun{
		FaultProb: c.FaultProb, ApplyProb: c.ApplyProb, DupProb: c.DupProb,
		Resilient: c.Resilient, FromK: c.FromK, ToK: c.ToK,
		Txns: c.Txns, BundlesPerTxn: c.BundlesPerTxn, Events: c.Txns * c.BundlesPerTxn,
		Workers: c.Workers,
	}
	set := commitPipeTxns(c.Seed, c.Txns, c.BundlesPerTxn)
	cfg := fabric.Config{Topology: kWay(c.FromK), Workers: c.Workers}
	if c.Resilient {
		cfg.Resilience = resilient.Policy{HedgeAfter: c.HedgeAfter}
	}
	if c.FaultProb > 0 {
		cfg.Faults = sim.UniformPlan(c.FaultProb, c.ApplyProb)
	}
	f, err := liveFabric(c.Seed, c.Scale, c.DupProb, cfg)
	if err != nil {
		return run, err
	}
	defer f.Close()
	wall0, t0 := time.Now(), f.Env.Now()

	// Negative control: no daemon, no settle (neither terminates against a
	// faulted fabric with no retry layer) — just the raw commit phase.
	if !c.Resilient {
		f.Dep.SetResilience(nil)
		var first error
		if _, run.CommitErrors, first = commitPhase(f, c.ClientConns, set); first != nil {
			run.FirstError = first.Error()
		}
		run.SimSeconds = (f.Env.Now() - t0).Seconds()
		run.WallSeconds = time.Since(wall0).Seconds()
		run.Faults = f.Env.Meter().Usage().Faults
		return run, nil
	}

	// The second half commits while the fabric reshards underneath it, under
	// the same fault plan — copies, cutover and GC all retry.
	f.Start()
	half := len(set) / 2
	if _, err := runPhase(f, c.ClientConns, set[:half], c.FromK); err != nil {
		return run, err
	}
	if _, err := runPhase(f, c.ClientConns, set[half:], c.ToK); err != nil {
		return run, err
	}
	run.SimSeconds = (f.Env.Now() - t0).Seconds()
	if run.SimSeconds > 0 {
		run.Goodput = float64(run.Events) / run.SimSeconds
	}

	// Measured fan-outs: full scatter-gather SELECTs across the grown
	// fabric, each hedged per shard. Every fan-out must return the complete
	// item set — a lost item would shrink the result, a duplicated one
	// would grow it.
	runtime.GC() // a collection of the commit phase's garbage must not land in the scaled-time fan-outs
	lat := make([]time.Duration, 0, c.Queries)
	for i := 0; i < c.Queries; i++ {
		q0 := f.Env.Now()
		items, _, _, err := f.Dep.DB.View().SelectAll("select itemName() from " + core.DomainName)
		if err != nil {
			return run, fmt.Errorf("bench: fan-out %d under faults: %w", i, err)
		}
		lat = append(lat, f.Env.Now()-q0)
		if len(items) != run.Events {
			return run, fmt.Errorf("bench: fan-out %d returned %d items, want %d", i, len(items), run.Events)
		}
	}
	run.QueryP50Ms, run.QueryP99Ms = pctMs(lat)

	// Exact item count, placement audit, and the digest the equivalence gate
	// compares against the fault-free twin (read back with the plan
	// disarmed). A chaos run ends as clean as a calm one.
	out, err := finish(f, wall0, set)
	if err != nil {
		return run, err
	}
	run.WallSeconds, run.TotalOps, run.CostUSD, run.Faults = out.wallSecs, out.usage.TotalOps, out.costUSD, out.usage.Faults
	st := f.Dep.Res.Stats().Totals()
	run.Retries, run.Hedges = st.Retries, st.Hedges
	run.BreakerOpens, run.BudgetDenials = st.BreakerOpens, st.BudgetDenials
	run.ItemCount, run.Misplaced, run.Duplicates, run.ProvDigest = out.items, out.misplaced, out.duplicates, out.digest
	return run, cleanEnd(f, false)
}
