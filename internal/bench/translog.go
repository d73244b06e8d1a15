package bench

import (
	"fmt"
	"time"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/fabric"
	"passcloud/internal/sim"
	"passcloud/internal/translog"
)

// The tamper-detection harness: drive the pinned commit + reshard workload
// through P3 with the transparency-log sequencer attached, then prove the
// trust story end to end — every committed transaction has a verifying
// inclusion proof, consecutive signed tree heads prove consistent, the
// auditor replays the log against the fabric cleanly, a rewritten bundle is
// flagged, and the sequencer's overhead leaves the client commit tail
// within 1.3x of a log-disabled twin.

// TranslogBenchScale is the live-mode time scale of the translog runs.
const TranslogBenchScale = 50

// TamperConfig parameterizes one transparency-log run.
type TamperConfig struct {
	Seed          int64
	Txns          int
	BundlesPerTxn int
	Workers       int     // P3 commit-daemon pool size
	ClientConns   int     // concurrent client commits
	Scale         float64 // live-mode time scale; 0 uses TranslogBenchScale
	FromK         int     // starting topology (WAL and DB shards)
	ToK           int     // reshard target; == FromK skips the reshard phase
	FaultProb     float64 // per-request fault probability (0 = fault-free)
	ApplyProb     float64 // fraction of mutating faults that are ambiguous
	LogEnabled    bool    // false = the log-disabled twin for the overhead gate
	Tamper        bool    // negative control: rewrite one bundle before the audit
}

// TamperRun is the measured outcome of one transparency-log configuration.
type TamperRun struct {
	LogEnabled    bool    `json:"log_enabled"`
	Tamper        bool    `json:"tamper"`
	FaultProb     float64 `json:"fault_prob"`
	FromK         int     `json:"from_k"`
	ToK           int     `json:"to_k"`
	Txns          int     `json:"txns"`
	BundlesPerTxn int     `json:"bundles_per_txn"`
	Events        int     `json:"events"`
	Workers       int     `json:"workers"`

	SimSeconds  float64 `json:"sim_seconds"`
	WallSeconds float64 `json:"wall_seconds"`
	CommitP50Ms float64 `json:"commit_p50_ms"` // client commit latency, simulated
	CommitP99Ms float64 `json:"commit_p99_ms"`

	TreeSize           int   `json:"tree_size"`
	LogAppends         int64 `json:"log_appends"`
	LogHeads           int64 `json:"log_heads"`
	InclusionVerified  int   `json:"inclusion_verified"`
	ConsistencyChecked int   `json:"consistency_checked"`
	HeadsVerified      int   `json:"heads_verified"`
	AuditClean         bool  `json:"audit_clean"`
	ProofFailures      int   `json:"proof_failures"`
	Divergences        int   `json:"divergences"`
	TamperFlagged      bool  `json:"tamper_flagged"`
	ReopenedOK         bool  `json:"reopened_ok"` // cold Open rebuilt the same head

	ItemCount  int     `json:"item_count"`
	Misplaced  int     `json:"misplaced"`
	Duplicates int     `json:"duplicates"`
	Faults     int64   `json:"faults"`
	TotalOps   int64   `json:"total_ops"`
	CostUSD    float64 `json:"cost_usd"`
}

// TamperDetection runs one transparency-log configuration: commit half the
// transaction set, grow the fabric FromK→ToK while the other half commits,
// settle, checkpoint, then verify every proof the log can issue and audit
// the log against the fabric. With Tamper set, one persisted bundle is
// rewritten behind the fabric's back first — the run then reports whether
// the auditor caught it.
func TamperDetection(c TamperConfig) (TamperRun, error) {
	if c.ClientConns <= 0 {
		c.ClientConns = 32
	}
	if c.Scale == 0 {
		c.Scale = TranslogBenchScale
	}
	run := TamperRun{
		LogEnabled: c.LogEnabled, Tamper: c.Tamper, FaultProb: c.FaultProb,
		FromK: c.FromK, ToK: c.ToK,
		Txns: c.Txns, BundlesPerTxn: c.BundlesPerTxn, Events: c.Txns * c.BundlesPerTxn,
		Workers: c.Workers,
	}
	set := commitPipeTxns(c.Seed, c.Txns, c.BundlesPerTxn)
	cfg := fabric.Config{Topology: kWay(c.FromK), Workers: c.Workers, Translog: c.LogEnabled}
	if c.FaultProb > 0 {
		cfg.Faults = sim.UniformPlan(c.FaultProb, c.ApplyProb)
	}
	f, err := liveFabric(c.Seed, c.Scale, 0, cfg)
	if err != nil {
		return run, err
	}
	defer f.Close()
	f.Start()

	wall0, t0 := time.Now(), f.Env.Now()
	half := len(set) / 2
	first, err := runPhase(f, c.ClientConns, set[:half], c.FromK)
	if err != nil {
		return run, err
	}
	// The witnessed head: a third party saw this commitment before the
	// reshard and the second commit phase; everything after must prove
	// consistency against it.
	var witness translog.SignedHead
	if c.LogEnabled {
		if witness, err = f.Checkpoint(); err != nil {
			return run, err
		}
	}
	second, err := runPhase(f, c.ClientConns, set[half:], c.ToK)
	if err != nil {
		return run, err
	}
	run.SimSeconds = (f.Env.Now() - t0).Seconds()
	lat := append(first.lat, second.lat...)
	run.CommitP50Ms, run.CommitP99Ms = pctMs(lat)

	// Verification runs with the fault plan disarmed: the proofs and the
	// audit are the subject here, not the retry machinery (the unit tests
	// cover auditing under live faults).
	out, err := finish(f, wall0, nil)
	if err != nil {
		return run, err
	}
	run.WallSeconds, run.Faults = out.wallSecs, out.usage.Faults
	run.ItemCount, run.Misplaced, run.Duplicates = out.items, out.misplaced, out.duplicates

	if c.LogEnabled {
		head, err := f.Checkpoint() // final durable head
		if err != nil {
			return run, err
		}
		run.TreeSize = head.TreeSize

		if c.Tamper {
			// Negative control: rewrite one committed item's attributes
			// directly on its home shard, behind the fabric's back.
			victim := f.Log.Leaves()[len(f.Log.Leaves())/2].Items[0].Name
			dom := f.Dep.DB.Shard(f.Dep.DB.ShardForItem(victim))
			it, err := dom.GetAttributes(victim)
			if err != nil {
				return run, err
			}
			attrs := append([]sdb.Attr(nil), it.Attrs...)
			attrs[0].Value += "-rewritten"
			if err := dom.PutAttributes(sdb.PutRequest{Item: victim, Attrs: attrs, Replace: true}); err != nil {
				return run, err
			}
		}

		rep, err := translog.Audit(f.Dep, f.Log, translog.AuditOptions{Witness: &witness})
		if err != nil {
			return run, err
		}
		run.AuditClean = rep.Clean()
		run.InclusionVerified = rep.InclusionVerified
		run.ConsistencyChecked = rep.ConsistencyChecked
		run.HeadsVerified = rep.HeadsVerified
		run.ProofFailures = len(rep.ProofFailures)
		run.Divergences = len(rep.Divergences)
		for _, d := range rep.Divergences {
			if d.Kind == translog.DivTampered {
				run.TamperFlagged = true
			}
		}

		// Third-party posture: a cold Open from the durable state alone
		// must rebuild the identical signed head (skipped after a tamper —
		// the rewritten fabric is the divergence under test, not the log).
		if !c.Tamper {
			reopened, err := translog.Open(f.Env, f.Dep.Store, "")
			if err != nil {
				return run, fmt.Errorf("bench: cold open: %w", err)
			}
			run.ReopenedOK = reopened.Head() == head
		}
	}
	usage := f.Env.Meter().Usage()
	run.LogAppends = usage.LogAppends
	run.LogHeads = usage.LogHeads
	run.TotalOps = usage.TotalOps
	run.CostUSD = usage.Cost(f.Env.Config().StorageWindow)

	// A logged run ends as clean as an unlogged one.
	return run, cleanEnd(f, false)
}
