// Package autoscale closes the loop over the reshard mechanism: a
// controller daemon that watches the fabric's load signals and decides when
// to grow or shrink the shard count — and to what K — without a human in
// the loop, and without flapping.
//
// # Signals
//
// Each sampling tick the controller reads two signals:
//
//   - Windowed per-endpoint op deltas. Usage.OpsByEndpoint is cumulative,
//     and a controller that differences raw totals against a remembered
//     snapshot can be fooled: a meter swapped or restarted between samples
//     yields a negative delta, which naive math reads as a load cliff and
//     answers with a spurious shrink. The sampler therefore clamps: when
//     cur < prev for an endpoint, the delta is cur (the counter restarted;
//     everything it shows happened inside this window). Rates are deltas
//     divided by the sim-clock window, never raw totals.
//   - Per-shard WAL backlog (sqs.QueueSet.ShardBacklog). A backlog that
//     keeps climbing means the commit daemons cannot drain what clients
//     enqueue — grow even if the request rate alone looks sustainable.
//
// # Policy: hysteresis + cooldown
//
// Two thresholds, deliberately far apart, bracket a dead band:
// GrowOpsPerShard above and ShrinkOpsPerShard below. Inside the band the
// controller holds. When a threshold is crossed, the new K is sized so the
// post-resize per-shard rate lands on TargetOpsPerShard — a point *inside*
// the band (by default the geometric mean of the two thresholds) — so the
// very next sample does not re-cross the opposite threshold and flap back.
// A sim-clock cooldown after every executed decision additionally rides out
// the transient the reshard itself causes (copy traffic, daemons catching
// up), and the first sample after startup never decides (there is no window
// yet, only a baseline snapshot).
//
// # Crash safety
//
// Decisions execute in a write-ahead protocol against a decision record
// persisted at "ctl/autoscale", next to the resharder's "ctl/fabric":
//
//	decide -> persist {state: decided} -> dep.Reshard(target) -> persist {state: done}
//
// A controller killed before the record persists decided nothing: the
// restarted controller re-samples and re-decides from live signals. Killed
// after persisting but before triggering, the restart finds the open record
// and triggers the reshard toward the recorded K — Deployment.Reshard is
// idempotent and resumable, so this also covers a reshard that itself died
// mid-copy. Killed after the reshard but before closing the record, the
// restart finds the fabric already at the recorded K, declines to
// re-trigger (Reshard returns immediately at-target), and just closes the
// record. While a record is open the controller never takes a new decision,
// so a crashed decision can neither double-trigger nor be orphaned; the
// controller rows of TestCrashRecovery (internal/fabric) kill at each
// boundary and prove it.
//
// # Interaction with ErrReshardInFlight
//
// The controller is one client of the single-resharder lock, not its owner.
// If dep.Reshard returns core.ErrReshardInFlight — an operator-driven
// reshard, or the cleaner finishing a dead resharder's GC, holds the run
// lock — the decision record simply stays open and the controller retries
// on a later tick; it never blocks a tick waiting for the lock, and it
// never decides anew while its own record is open. Combined with the
// directory's refusal to open a second migration to a different width, the
// worst case of racing a manual reshard is a deferred decision, never a
// conflicting one.
//
// # Load-aware splits
//
// Before triggering a grow the controller stages its windowed per-shard
// deltas as the directory's split-load hint (sim.Directory.SetSplitLoad),
// so the new shards carve up the *hottest* hash ranges — the traffic it is
// growing to absorb — rather than the widest. Without a hint the directory
// keeps its historical widest-range split, so statically resharded
// deployments keep their pinned geometry.
package autoscale
