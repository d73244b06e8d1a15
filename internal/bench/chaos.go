package bench

import (
	"fmt"
	"time"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/core"
	"passcloud/internal/fabric"
	"passcloud/internal/resilient"
	"passcloud/internal/sim"
)

// The chaos harness: drive the pinned commit + reshard + query workload
// through P3 while every service endpoint injects transient faults, and
// prove the resilient client layer absorbs all of it — the faulted fabric
// must hold exactly one copy of every provenance item, every hedged
// scatter-gather read must return the complete item set, the fabric must
// read back byte-identical to its fault-free twin, and the same workload
// with resilience disabled must demonstrably fail.

// chaosHedgeAfter is the hedge threshold of the harness's resilient policy,
// half the default, so stragglers among the per-shard reads are hedged.
const chaosHedgeAfter = 200 * time.Millisecond

// ChaosConfig parameterizes one chaos run.
type ChaosConfig struct {
	Seed          int64
	Txns          int
	BundlesPerTxn int
	Workers       int     // P3 commit-daemon pool size
	ClientConns   int     // concurrent client commits
	Scale         float64 // live-mode time scale
	FromK         int     // starting topology (WAL and DB shards)
	ToK           int     // reshard target; == FromK skips the reshard phase
	FaultProb     float64 // per-request fault probability; 0 = fault-free twin
	ApplyProb     float64 // fraction of mutating faults that are ambiguous
	DupProb       float64 // queue duplicate-delivery probability
	Resilient     bool    // false = negative control: raw faults, no retries
	Queries       int     // checked scatter-gather fan-outs after settle
}

// ChaosRun is the measured outcome of one chaos configuration.
type ChaosRun struct {
	Txns   int
	Events int

	CommitErrors int // failed client commits (negative control)
	FirstError   string

	Faults  int64 // injected by the plan
	Retries int64
	Hedges  int64

	ProvDigest string
}

// ChaosCommitQueryReshard runs one chaos configuration: commit half the
// transaction set, grow the fabric FromK→ToK while the other half commits,
// settle, then check Queries scatter-gather fan-outs and digest every
// object's read-back provenance. With Resilient false it degenerates to the
// negative control — clients face raw injected faults with no retry layer,
// no commit daemon runs, and the run returns after the commit phase with
// the error count (completing the workload would stall: a faulted fabric
// without retries never drains).
func ChaosCommitQueryReshard(c ChaosConfig) (ChaosRun, error) {
	if c.ClientConns <= 0 {
		c.ClientConns = 64
	}
	if c.Queries <= 0 {
		c.Queries = 20
	}
	run := ChaosRun{Txns: c.Txns, Events: c.Txns * c.BundlesPerTxn}
	set := commitPipeTxns(c.Seed, c.Txns, c.BundlesPerTxn)
	cfg := fabric.Config{Topology: kWay(c.FromK), Workers: c.Workers}
	if c.Resilient {
		cfg.Resilience = resilient.Policy{HedgeAfter: chaosHedgeAfter}
	}
	if c.FaultProb > 0 {
		cfg.Faults = sim.UniformPlan(c.FaultProb, c.ApplyProb)
	}
	f, err := liveFabric(c.Seed, c.Scale, c.DupProb, cfg)
	if err != nil {
		return run, err
	}
	defer f.Close()

	// Negative control: no daemon, no settle (neither terminates against a
	// faulted fabric with no retry layer) — just the raw commit phase.
	if !c.Resilient {
		f.Dep.SetResilience(nil)
		var first error
		if run.CommitErrors, first = commitPhase(f, c.ClientConns, set); first != nil {
			run.FirstError = first.Error()
		}
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

	// Full scatter-gather SELECTs across the grown fabric, each hedged per
	// shard. Every fan-out must return the complete item set — a lost item
	// would shrink the result, a duplicated one would grow it.
	for i := 0; i < c.Queries; i++ {
		items, _, _, err := f.Dep.DB.SelectAllQuery(sdb.Query{Domain: core.DomainName, ItemOnly: true})
		if err != nil {
			return run, fmt.Errorf("bench: fan-out %d under faults: %w", i, err)
		}
		if len(items) != run.Events {
			return run, fmt.Errorf("bench: fan-out %d returned %d items, want %d", i, len(items), run.Events)
		}
	}

	// The oracle, and the digest the equivalence gate compares against the
	// fault-free twin (read back with the plan disarmed). A chaos run ends
	// as clean as a calm one.
	usage, digest, err := finish(f, set)
	if err != nil {
		return run, err
	}
	st := f.Dep.Res.Stats().Totals()
	run.Faults, run.Retries, run.Hedges = usage.Faults, st.Retries, st.Hedges
	run.ProvDigest = digest
	return run, nil
}
