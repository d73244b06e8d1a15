package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/resilient"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
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
	set := commitPipeTxns(c.Seed, c.Txns, c.BundlesPerTxn)
	runtime.GC() // keep allocator debt out of the scaled-time measurement

	cfg := sim.DefaultConfig()
	cfg.Seed = c.Seed
	cfg.TimeScale = c.Scale
	cfg.Consistency = sim.Strict // isolate chaos timing from staleness retries
	cfg.DupProb = c.DupProb
	env := sim.NewEnv(cfg)
	dep := core.NewShardedDeployment(env, core.Topology{WALShards: c.FromK, DBShards: c.FromK})
	switch {
	case !c.Resilient:
		dep.SetResilience(nil)
	case c.HedgeAfter != 0:
		dep.SetResilience(resilient.New(env, resilient.Policy{HedgeAfter: c.HedgeAfter}))
	}
	if c.FaultProb > 0 {
		env.InstallFaults(sim.UniformPlan(c.FaultProb, c.ApplyProb))
	}
	p3 := core.NewP3(dep, core.Options{CommitWorkers: c.Workers})

	run := ChaosRun{
		FaultProb: c.FaultProb, ApplyProb: c.ApplyProb, DupProb: c.DupProb,
		Resilient: c.Resilient, FromK: c.FromK, ToK: c.ToK,
		Txns: c.Txns, BundlesPerTxn: c.BundlesPerTxn, Events: c.Txns * c.BundlesPerTxn,
		Workers: c.Workers,
	}

	wall0 := time.Now()
	commitBatch := func(batch []pipeTxn) (nerr int, first error) {
		sem := make(chan struct{}, c.ClientConns)
		errs := make(chan error, len(batch))
		for i := range batch {
			tx := &batch[i]
			sem <- struct{}{}
			go func() {
				defer func() { <-sem }()
				errs <- p3.Commit(tx.obj, tx.bundles)
			}()
		}
		for range batch {
			if err := <-errs; err != nil {
				nerr++
				if first == nil {
					first = err
				}
			}
		}
		return nerr, first
	}

	// Negative control: no daemon, no settle (neither terminates against a
	// faulted fabric with no retry layer) — just the raw commit phase.
	if !c.Resilient {
		t0 := env.Now()
		nerr, first := commitBatch(set)
		run.CommitErrors = nerr
		if first != nil {
			run.FirstError = first.Error()
		}
		run.SimSeconds = (env.Now() - t0).Seconds()
		run.WallSeconds = time.Since(wall0).Seconds()
		run.Faults = env.Meter().Usage().Faults
		return run, nil
	}

	// The commit-daemon pool drains the WAL while the clients log, exactly
	// as in the reshard benchmark; always joined on the way out.
	stopDaemon := make(chan struct{})
	daemonDone := make(chan struct{})
	go func() {
		defer close(daemonDone)
		p3.RunDaemon(stopDaemon, time.Second)
	}()
	var stopOnce sync.Once
	stop := func() {
		stopOnce.Do(func() {
			close(stopDaemon)
			<-daemonDone
		})
	}
	defer stop()

	t0 := env.Now()
	half := len(set) / 2
	if nerr, first := commitBatch(set[:half]); first != nil {
		return run, fmt.Errorf("bench: %d commits failed under faults: %w", nerr, first)
	}
	if err := p3.Settle(); err != nil {
		return run, err
	}

	// Second half commits while the fabric resharded underneath it, under
	// the same fault plan — copies, cutover and GC all retry.
	type reshardResult struct {
		err error
	}
	resCh := make(chan reshardResult, 1)
	if c.ToK != c.FromK {
		go func() {
			_, err := dep.Reshard(context.Background(), core.Topology{WALShards: c.ToK, DBShards: c.ToK})
			resCh <- reshardResult{err: err}
		}()
	} else {
		resCh <- reshardResult{}
	}
	nerr, first := commitBatch(set[half:])
	res := <-resCh
	if first != nil {
		return run, fmt.Errorf("bench: %d commits failed under faults: %w", nerr, first)
	}
	if res.err != nil {
		return run, fmt.Errorf("bench: reshard under faults: %w", res.err)
	}
	if err := p3.Settle(); err != nil {
		return run, err
	}
	run.SimSeconds = (env.Now() - t0).Seconds()
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
		q0 := env.Now()
		items, _, _, err := dep.DB.View().SelectAll("select itemName() from " + core.DomainName)
		if err != nil {
			return run, fmt.Errorf("bench: fan-out %d under faults: %w", i, err)
		}
		lat = append(lat, env.Now()-q0)
		if len(items) != run.Events {
			return run, fmt.Errorf("bench: fan-out %d returned %d items, want %d", i, len(items), run.Events)
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	run.QueryP50Ms = float64(lat[len(lat)/2].Microseconds()) / 1e3
	run.QueryP99Ms = float64(lat[len(lat)*99/100].Microseconds()) / 1e3

	stop()
	if err := p3.Settle(); err != nil {
		return run, err
	}
	run.WallSeconds = time.Since(wall0).Seconds()

	usage := env.Meter().Usage()
	run.TotalOps = usage.TotalOps
	run.CostUSD = usage.Cost(cfg.StorageWindow)
	run.Faults = usage.Faults
	if dep.Res != nil {
		st := dep.Res.Stats().Totals()
		run.Retries, run.Hedges = st.Retries, st.Hedges
		run.BreakerOpens, run.BudgetDenials = st.BreakerOpens, st.BudgetDenials
	}

	// Verification outside the measurement, on an instant clock: exact item
	// count, placement audit, and the content digest the equivalence gate
	// compares against the fault-free twin.
	env.Clock().SetScale(0)
	run.ItemCount = dep.DB.ItemCount()
	mis, dup, err := core.AuditFabric(dep)
	if err != nil {
		return run, fmt.Errorf("bench: fabric audit under faults: %w", err)
	}
	run.Misplaced, run.Duplicates = mis, dup
	h := sha256.New()
	for i := range set {
		for _, u := range []uuid.UUID{set[i].file, set[i].proc} {
			bundles, err := core.ReadProvenance(dep, core.BackendSDB, u)
			if err != nil {
				return run, fmt.Errorf("bench: read-back of %s: %w", u, err)
			}
			h.Write(prov.EncodeBundles(bundles))
		}
		o, err := dep.Store.Get(core.DataKey(set[i].obj.Path))
		if err != nil {
			return run, fmt.Errorf("bench: data of %s: %w", set[i].obj.Path, err)
		}
		h.Write([]byte(o.Metadata["prov-uuid"] + "/" + o.Metadata["prov-version"]))
	}
	run.ProvDigest = hex.EncodeToString(h.Sum(nil))

	// A chaos run ends as clean as a calm one.
	if n := dep.WAL.Len(); n != 0 {
		return run, fmt.Errorf("bench: %d WAL messages left after settle", n)
	}
	if keys, _, _ := dep.Store.ListAll(core.TmpPrefix); len(keys) != 0 {
		return run, fmt.Errorf("bench: %d temp objects leaked", len(keys))
	}
	if n := p3.PendingTxns(); n != 0 {
		return run, fmt.Errorf("bench: %d transactions still pending", n)
	}
	return run, nil
}
