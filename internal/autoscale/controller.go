package autoscale

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"passcloud/internal/cloud/store"
	"passcloud/internal/core"
	"passcloud/internal/sim"
)

// RecordKey is the store key of the persisted decision record — the
// controller's write-ahead state, next to core.FabricControlKey.
const RecordKey = "ctl/autoscale"

// Decision-record states.
const (
	RecordDecided = "decided" // decision persisted, reshard not yet confirmed done
	RecordDone    = "done"    // decision executed and closed
)

// DecisionRecord is the persisted write-ahead record of one scaling
// decision. A record in state "decided" is an obligation: a restarted
// controller rolls it forward (triggering the reshard at most once) before
// it is allowed to decide anything new.
type DecisionRecord struct {
	Seq     int     `json:"seq"`
	FromK   int     `json:"from_k"`
	TargetK int     `json:"target_k"`
	State   string  `json:"state"`
	Reason  string  `json:"reason"`
	SimSecs float64 `json:"sim_secs"` // sim-clock time of the decision
	// What the triggered reshard moved and the requests it issued, set when
	// the record closes. All zero when the closing controller found the
	// fabric already at the target (the reshard ran under a dead one).
	CopiedItems int `json:"copied_items,omitempty"`
	CopyBatches int `json:"copy_batches,omitempty"`
	GCItems     int `json:"gc_items,omitempty"`
	GCBatches   int `json:"gc_batches,omitempty"`
}

// Config tunes the controller's policy. The zero value of any field takes
// the default noted on it.
type Config struct {
	// MinK and MaxK bound the fabric width (defaults 1 and 8).
	MinK, MaxK int
	// GrowOpsPerShard is the windowed per-shard endpoint op rate (ops/sec of
	// sim time) above which the controller grows (default 120).
	GrowOpsPerShard float64
	// ShrinkOpsPerShard is the rate below which it shrinks (default 25).
	// Must be well under GrowOpsPerShard — the gap is the hysteresis band.
	ShrinkOpsPerShard float64
	// TargetOpsPerShard is the per-shard rate a resize aims to land on;
	// it must sit inside the band (default: the geometric mean of the two
	// thresholds), so a resize never immediately re-triggers.
	TargetOpsPerShard float64
	// GrowBacklogPerShard is the per-shard WAL backlog (messages) above
	// which the controller grows regardless of the op rate (default 500):
	// daemons that cannot drain the queues are saturation even when the
	// offered rate looks modest.
	GrowBacklogPerShard int
	// Cooldown is the minimum sim time between executed decisions (default
	// 60s) — long enough for the reshard's own transient to pass.
	Cooldown time.Duration
}

func (c Config) withDefaults() Config {
	if c.MinK < 1 {
		c.MinK = 1
	}
	if c.MaxK < c.MinK {
		c.MaxK = c.MinK + 7
	}
	if c.GrowOpsPerShard <= 0 {
		c.GrowOpsPerShard = 120
	}
	if c.ShrinkOpsPerShard <= 0 {
		c.ShrinkOpsPerShard = 25
	}
	if c.TargetOpsPerShard <= 0 {
		c.TargetOpsPerShard = math.Sqrt(c.GrowOpsPerShard * c.ShrinkOpsPerShard)
	}
	if c.GrowBacklogPerShard <= 0 {
		c.GrowBacklogPerShard = 500
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 60 * time.Second
	}
	return c
}

// Controller crash points, in protocol order: each leaves the record and
// fabric exactly as a controller process killed at that boundary would.
const (
	CrashPreRecord  sim.CrashPoint = "autoscale.pre-record"  // decision taken, record not persisted
	CrashPreTrigger sim.CrashPoint = "autoscale.pre-trigger" // record persisted, reshard not triggered
	CrashPreDone    sim.CrashPoint = "autoscale.pre-done"    // reshard complete, record not closed
)

// Status is a point-in-time snapshot of the controller for display.
type Status struct {
	Enabled bool
	K       int // active DB-axis width
	// Decision counters.
	Samples, Grows, Shrinks int
	Holds                   int // samples that decided nothing (in band, cooldown, no window)
	Deferred                int // decisions deferred behind core.ErrReshardInFlight
	// Last sampled window.
	RatePerShard float64       // windowed endpoint ops/sec per shard
	MaxBacklog   int           // largest per-shard WAL backlog seen
	Window       time.Duration // sim-time width of the last window
	// Record is the open (or most recently closed) decision record, if any.
	Record  *DecisionRecord
	LastErr string
}

// Controller samples the fabric's load signals and drives dep.Reshard. All
// methods are safe for concurrent use; Step never blocks behind a running
// reshard it did not start.
type Controller struct {
	dep *core.Deployment
	cfg Config

	mu       sync.Mutex
	enabled  bool
	prev     map[string]int64 // last OpsByEndpoint snapshot
	prevAt   time.Duration
	window   bool          // prev is a real baseline (>= 1 sample taken)
	lastAct  time.Duration // sim time of the last executed decision
	walLoad  map[int]int64 // last window's per-shard deltas, WAL axis
	dbLoad   map[int]int64 // last window's per-shard deltas, DB axis
	st       Status
	seq      int // last seq read from or written to the record
	haveSeq  bool
	recCache *DecisionRecord
}

// New builds a controller over dep. It starts disabled; call Enable (or
// provctl "autoscale on").
func New(dep *core.Deployment, cfg Config) *Controller {
	return &Controller{dep: dep, cfg: cfg.withDefaults()}
}

// Enable lets Step take decisions.
func (c *Controller) Enable() {
	c.mu.Lock()
	c.enabled = true
	c.mu.Unlock()
}

// Disable stops Step from sampling or deciding (an open record is still
// rolled forward by the next enabled Step — decisions are never orphaned).
func (c *Controller) Disable() {
	c.mu.Lock()
	c.enabled = false
	c.mu.Unlock()
}

// Enabled reports whether the controller is taking decisions.
func (c *Controller) Enabled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.enabled
}

// Status returns a snapshot of the controller's state.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.st
	s.Enabled = c.enabled
	s.K = c.dep.DB.Directory().Active().Shards
	if c.recCache != nil {
		r := *c.recCache
		s.Record = &r
	}
	return s
}

// sample reads one window's signals: the windowed per-endpoint deltas, the
// per-shard WAL backlog, and the gate depths, republishing them as gauges.
type sample struct {
	k            int
	ratePerShard float64
	totalRate    float64
	maxBacklog   int
	window       time.Duration
	first        bool
}

func (c *Controller) sample() sample {
	env := c.dep.Env
	now := env.Now()
	u := env.Meter().Usage() // deep copy under the meter lock

	// Per-shard WAL backlog -> gauges; keep the max for the decision.
	backlog := c.dep.WAL.ShardBacklog()
	gauges := make(map[string]int64, len(backlog))
	maxBacklog := 0
	for name, n := range backlog {
		gauges[name] = int64(n)
		if n > maxBacklog {
			maxBacklog = n
		}
	}
	env.Meter().ReplaceGauges("wal.backlog.", gauges)

	// Gate queue depths -> gauges (rounded; the trend is the signal).
	depths := env.GateDepths()
	dg := make(map[string]int64, len(depths))
	for name, d := range depths {
		dg[name] = int64(math.Round(d))
	}
	env.Meter().ReplaceGauges("gate.depth.", dg)

	// Windowed deltas per fabric endpoint. Negative deltas mean the counter
	// restarted between samples; clamp to cur so a reset never reads as a
	// load cliff (see doc.go).
	delta := func(name string) int64 {
		d := u.OpsByEndpoint[name]
		if prev, ok := c.prev[name]; ok && c.window {
			if d >= prev {
				d -= prev
			}
		}
		return d
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	s := sample{k: c.dep.DB.Directory().Active().Shards, maxBacklog: maxBacklog}
	s.window = now - c.prevAt
	s.first = !c.window

	walK, dbK := c.dep.WAL.Shards(), c.dep.DB.Shards()
	c.walLoad = make(map[int]int64, walK)
	c.dbLoad = make(map[int]int64, dbK)
	var walOps, dbOps int64
	for i := 0; i < walK; i++ {
		if q := c.dep.WAL.Shard(i); q != nil {
			d := delta(q.Name())
			c.walLoad[i] = d
			walOps += d
		}
	}
	for i := 0; i < dbK; i++ {
		if dom := c.dep.DB.Shard(i); dom != nil {
			d := delta(dom.Name())
			c.dbLoad[i] = d
			dbOps += d
		}
	}
	if !s.first && s.window > 0 {
		secs := s.window.Seconds()
		wal := float64(walOps) / secs
		db := float64(dbOps) / secs
		s.totalRate = wal
		if db > s.totalRate {
			s.totalRate = db
		}
		s.ratePerShard = s.totalRate / float64(s.k)
	}

	c.prev = u.OpsByEndpoint
	c.prevAt = now
	c.window = true
	c.st.Samples++
	c.st.RatePerShard = s.ratePerShard
	c.st.MaxBacklog = s.maxBacklog
	c.st.Window = s.window
	env.Meter().SetGauge("autoscale.rate_per_shard", int64(math.Round(s.ratePerShard)))
	return s
}

// desiredK applies the hysteresis policy to one sample. It returns the
// current k (and an empty reason) when the sample sits inside the band.
func (c *Controller) desiredK(s sample) (int, string) {
	cfg := c.cfg
	if s.ratePerShard > cfg.GrowOpsPerShard || s.maxBacklog > cfg.GrowBacklogPerShard {
		k := int(math.Ceil(s.totalRate / cfg.TargetOpsPerShard))
		if k <= s.k {
			k = s.k + 1 // backlog-triggered: rate alone may not justify more
		}
		if k > cfg.MaxK {
			k = cfg.MaxK
		}
		if k == s.k {
			return s.k, ""
		}
		// Name the trigger that actually fired: a saturated closed-loop
		// fabric can show a modest op rate while the queues pile up.
		if s.ratePerShard > cfg.GrowOpsPerShard {
			return k, fmt.Sprintf("grow: %.0f ops/s/shard (grow>%.0f) backlog=%d", s.ratePerShard, cfg.GrowOpsPerShard, s.maxBacklog)
		}
		return k, fmt.Sprintf("grow: backlog %d/shard (grow>%d) at %.0f ops/s/shard", s.maxBacklog, cfg.GrowBacklogPerShard, s.ratePerShard)
	}
	if s.ratePerShard < cfg.ShrinkOpsPerShard && s.k > cfg.MinK && s.maxBacklog <= cfg.GrowBacklogPerShard {
		k := int(math.Ceil(s.totalRate / cfg.TargetOpsPerShard))
		if k >= s.k {
			return s.k, ""
		}
		if k < cfg.MinK {
			k = cfg.MinK
		}
		return k, fmt.Sprintf("shrink: %.0f ops/s/shard (shrink<%.0f)", s.ratePerShard, cfg.ShrinkOpsPerShard)
	}
	return s.k, ""
}

// readRecord fetches the persisted decision record; ok is false when none
// was ever written (or it is not yet visible), never on an error.
func (c *Controller) readRecord() (DecisionRecord, bool, error) {
	o, err := c.dep.Store.Get(RecordKey)
	if errors.Is(err, store.ErrNoSuchKey) {
		return DecisionRecord{}, false, nil // never persisted, or not yet visible
	}
	if err != nil {
		return DecisionRecord{}, false, err
	}
	var r DecisionRecord
	if err := json.Unmarshal(o.Data, &r); err != nil {
		return DecisionRecord{}, false, fmt.Errorf("autoscale: decoding decision record: %w", err)
	}
	// A record no controller wrote is an error, never an obligation:
	// finishing it would reshard to a width nothing decided.
	if (r.State != RecordDecided && r.State != RecordDone) || r.TargetK < 1 || r.TargetK > core.MaxShards {
		return DecisionRecord{}, false, fmt.Errorf("autoscale: invalid decision record: state %q, target_k %d", r.State, r.TargetK)
	}
	return r, true, nil
}

// persistRecord writes the decision record ahead of the state it describes.
func (c *Controller) persistRecord(r DecisionRecord) error {
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("autoscale: encoding decision record: %w", err)
	}
	if err := c.dep.Store.Put(RecordKey, b, nil); err != nil {
		return err
	}
	c.mu.Lock()
	rc := r
	c.recCache = &rc
	c.seq, c.haveSeq = r.Seq, true
	c.mu.Unlock()
	return nil
}

// stageSplitLoads hands the directory the windowed per-shard deltas from
// the last sample as its split-load hint, so a grow splits the hottest
// ranges (the traffic this decision is reacting to), not the widest.
func (c *Controller) stageSplitLoads(target int) {
	c.mu.Lock()
	wal, db := c.walLoad, c.dbLoad
	c.mu.Unlock()
	stage := func(dir interface {
		Migrating() bool
		HasSplitLoad() bool
	}, set func(map[int]int64), active int, load map[int]int64) {
		if target <= active || dir.Migrating() || len(load) == 0 {
			return
		}
		total := int64(0)
		for _, v := range load {
			total += v
		}
		if total > 0 {
			set(load)
		}
	}
	dbDir, walDir := c.dep.DB.Directory(), c.dep.WAL.Directory()
	stage(dbDir, dbDir.SetSplitLoad, dbDir.Active().Shards, db)
	stage(walDir, walDir.SetSplitLoad, walDir.Active().Shards, wal)
}

// finish rolls an open ("decided") record forward: trigger the reshard —
// declining to re-trigger when the fabric already reached the target — and
// close the record. A reshard already in flight defers the record to a
// later tick instead of blocking this one.
func (c *Controller) finish(ctx context.Context, rec DecisionRecord) error {
	target := core.Topology{WALShards: rec.TargetK, DBShards: rec.TargetK}
	c.stageSplitLoads(rec.TargetK)
	stats, err := c.dep.Reshard(ctx, target)
	if errors.Is(err, core.ErrReshardInFlight) {
		c.mu.Lock()
		c.st.Deferred++
		c.mu.Unlock()
		return nil // record stays open; retry next tick
	}
	if err != nil {
		c.setErr(err)
		return err // record stays open; a restart resumes it
	}
	if c.dep.Env.Crashed(CrashPreDone) {
		return fmt.Errorf("%w: controller at %s", sim.ErrCrashed, CrashPreDone)
	}
	rec.State = RecordDone
	rec.CopiedItems, rec.CopyBatches = stats.CopiedItems, stats.CopyBatches
	rec.GCItems, rec.GCBatches = stats.GCItems, stats.GCBatches
	if err := c.persistRecord(rec); err != nil {
		c.setErr(err)
		return err
	}
	c.mu.Lock()
	if rec.TargetK > rec.FromK {
		c.st.Grows++
	} else {
		c.st.Shrinks++
	}
	c.lastAct = c.dep.Env.Now()
	c.mu.Unlock()
	return nil
}

func (c *Controller) setErr(err error) {
	c.mu.Lock()
	c.st.LastErr = err.Error()
	c.mu.Unlock()
}

// Step runs one controller tick: sample, roll forward any open decision,
// otherwise decide and execute. It returns sim.ErrCrashed when an armed
// crash point fires.
func (c *Controller) Step(ctx context.Context) error {
	if !c.Enabled() {
		return nil
	}
	s := c.sample()

	// An open record is an obligation that precedes any new decision. The
	// store is eventually consistent, so a read issued right after our own
	// write can return the previous version (or miss a fresh key): a live
	// controller therefore never lets a store read regress what it knows it
	// wrote — otherwise a stale "decided" would be re-finished, bumping the
	// counters and resetting the cooldown. A *restarted* controller has no
	// cache; its worst case is rolling a stale "decided" forward once more,
	// which Reshard absorbs by declining at-target.
	rec, ok, err := c.readRecord()
	if err != nil {
		c.setErr(err)
		return err
	}
	c.mu.Lock()
	if cache := c.recCache; cache != nil &&
		(!ok || cache.Seq > rec.Seq ||
			(cache.Seq == rec.Seq && cache.State == RecordDone && rec.State != RecordDone)) {
		rec, ok = *cache, true
	}
	if ok {
		rc := rec
		c.recCache = &rc
		if !c.haveSeq || rec.Seq > c.seq {
			c.seq, c.haveSeq = rec.Seq, true
		}
	}
	c.mu.Unlock()
	if ok && rec.State == RecordDecided {
		return c.finish(ctx, rec)
	}

	hold := func() {
		c.mu.Lock()
		c.st.Holds++
		c.mu.Unlock()
	}
	if s.first {
		hold() // baseline sample only — no window to judge yet
		return nil
	}
	c.mu.Lock()
	inCooldown := c.lastAct > 0 && c.dep.Env.Now()-c.lastAct < c.cfg.Cooldown
	seq := c.seq
	c.mu.Unlock()
	if inCooldown {
		hold()
		return nil
	}
	target, reason := c.desiredK(s)
	if target == s.k {
		hold()
		return nil
	}

	if c.dep.Env.Crashed(CrashPreRecord) {
		return fmt.Errorf("%w: controller at %s", sim.ErrCrashed, CrashPreRecord)
	}
	newRec := DecisionRecord{
		Seq:     seq + 1,
		FromK:   s.k,
		TargetK: target,
		State:   RecordDecided,
		Reason:  reason,
		SimSecs: c.dep.Env.Now().Seconds(),
	}
	if err := c.persistRecord(newRec); err != nil {
		c.setErr(err)
		return err
	}
	if c.dep.Env.Crashed(CrashPreTrigger) {
		return fmt.Errorf("%w: controller at %s", sim.ErrCrashed, CrashPreTrigger)
	}
	return c.finish(ctx, newRec)
}

// Run loops Step every interval of sim time until stop closes (live-clock
// deployments; manual-clock tooling calls Step directly). Errors are
// recorded in Status and do not stop the loop — a controller daemon rides
// out transient store failures the way the commit daemons do.
func (c *Controller) Run(ctx context.Context, stop <-chan struct{}, interval time.Duration) {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	for {
		select {
		case <-stop:
			return
		default:
		}
		if err := c.Step(ctx); err != nil {
			c.setErr(err)
		}
		c.dep.Env.Clock().Sleep(interval)
	}
}
