package bench

import (
	"fmt"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/fabric"
	"passcloud/internal/sim"
	"passcloud/internal/translog"
)

// The tamper-detection harness: drive the pinned commit + reshard workload
// through P3 with the transparency-log sequencer attached, then prove the
// trust story end to end — every committed transaction has a verifying
// inclusion proof, consecutive signed tree heads prove consistent, the
// auditor replays the log against the fabric cleanly, and a rewritten
// bundle is flagged.

// TamperConfig parameterizes one transparency-log run.
type TamperConfig struct {
	Seed          int64
	Txns          int
	BundlesPerTxn int
	Workers       int     // P3 commit-daemon pool size
	ClientConns   int     // concurrent client commits
	Scale         float64 // live-mode time scale
	FromK         int     // starting topology (WAL and DB shards)
	ToK           int     // reshard target; == FromK skips the reshard phase
	FaultProb     float64 // per-request fault probability (0 = fault-free)
	ApplyProb     float64 // fraction of mutating faults that are ambiguous
	Tamper        bool    // negative control: rewrite one bundle before the audit
}

// TamperRun is the measured outcome of one transparency-log configuration.
type TamperRun struct {
	Events int

	TreeSize           int
	InclusionVerified  int
	ConsistencyChecked int
	HeadsVerified      int
	AuditClean         bool
	ProofFailures      int
	Divergences        int
	TamperFlagged      bool
	ReopenedOK         bool // cold Open rebuilt the same head

	ItemCount  int
	Misplaced  int
	Duplicates int
	Faults     int64
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
	run := TamperRun{Events: c.Txns * c.BundlesPerTxn}
	set := commitPipeTxns(c.Seed, c.Txns, c.BundlesPerTxn)
	cfg := fabric.Config{Topology: kWay(c.FromK), Workers: c.Workers, Translog: true}
	if c.FaultProb > 0 {
		cfg.Faults = sim.UniformPlan(c.FaultProb, c.ApplyProb)
	}
	f, err := liveFabric(c.Seed, c.Scale, 0, cfg)
	if err != nil {
		return run, err
	}
	defer f.Close()
	f.Start()

	half := len(set) / 2
	if _, err := runPhase(f, c.ClientConns, set[:half], c.FromK); err != nil {
		return run, err
	}
	// The witnessed head: a third party saw this commitment before the
	// reshard and the second commit phase; everything after must prove
	// consistency against it.
	witness, err := f.Checkpoint()
	if err != nil {
		return run, err
	}
	if _, err := runPhase(f, c.ClientConns, set[half:], c.ToK); err != nil {
		return run, err
	}

	// Verification runs with the fault plan disarmed: the proofs and the
	// audit are the subject here, not the retry machinery (the unit tests
	// cover auditing under live faults).
	out, err := finish(f, nil)
	if err != nil {
		return run, err
	}
	run.Faults, run.ItemCount, run.Misplaced, run.Duplicates = out.usage.Faults, out.items, out.misplaced, out.duplicates

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

	// A logged run ends as clean as an unlogged one.
	return run, cleanEnd(f)
}
