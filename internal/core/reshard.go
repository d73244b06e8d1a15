package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/cloud/sqs"
	"passcloud/internal/cloud/store"
	"passcloud/internal/par"
	"passcloud/internal/sim"
)

// Live dynamic resharding of the cloud fabric.
//
// Topology used to be fixed at deployment creation; Reshard grows (or
// shrinks) a running fabric without stopping ingest. The protocol rides the
// epoch-versioned placement directories of the shard sets:
//
//  1. Prepare: open an epoch transition on both directories (creating the
//     grown service domains/queues) and persist the fabric control object.
//     From this moment every provenance item write lands on the union of
//     its active- and target-epoch homes (the double-write window) and
//     every read consults the same union, so nothing the copier has not
//     reached yet can go unobserved.
//  2. Barrier: wait for writes that routed under the previous epoch view to
//     finish applying. Anything not double-written is now durably on its
//     active-epoch shard.
//  3. Copy: one scanner per active-epoch shard pages through a strongly
//     consistent SELECT and routes the items whose target-epoch home differs
//     into per-target accumulators; every full 25-item batch goes straight
//     to one flush pool shared by the whole copy (at most reshardConns
//     BatchPuts in flight — the scanners block only on that bound, never on
//     a page's own writes), and the partial batches flush once at the end of
//     the scan. The window lasts max(scan, movers/25 ÷ pool rate), not
//     Σ pages × (SELECT + BatchPut). The copy is idempotent — items are
//     immutable, so re-copying after a crash rewrites identical bytes.
//  4. Cutover: atomically promote the target epoch on both directories and
//     persist the control object in the "gc" state. Reads now route by the
//     new epoch alone; the stale copies left on the old shards are garbage.
//  5. GC: scan every shard and delete the items it no longer owns, each
//     scanned page's stale names in BatchDeleteAttributes calls of up to 25
//     on a flush pool like the copy's; migrate any messages stranded on
//     decommissioned WAL queues to their new homes in 10-entry idempotent
//     batches, retire drained queue/domain slots (a shrink), and persist
//     the control object as "stable".
//
// Every phase is idempotent and the control object is written ahead of the
// state it describes becoming load-bearing, so a resharder killed at any
// phase boundary recovers by re-running Reshard toward the same target (see
// ResumeReshard); readers observe byte-identical query results throughout.

// FabricControlKey is the store key of the fabric control object — the
// persisted topology/epoch record a restarted resharder (or a fresh daemon
// host) consults to learn which epoch the fabric is in.
const FabricControlKey = "ctl/fabric"

// Control-object states.
const (
	ControlStable    = "stable"    // one epoch, no migration in flight
	ControlMigrating = "migrating" // double-write window open, copy running
	ControlGC        = "gc"        // cutover done, old-shard garbage pending
)

// FabricControl is the persisted fabric state.
type FabricControl struct {
	State    string          `json:"state"`
	Topology Topology        `json:"topology"`         // active topology
	Target   *Topology       `json:"target,omitempty"` // set while migrating
	WALDir   sim.DirSnapshot `json:"wal_dir"`
	DBDir    sim.DirSnapshot `json:"db_dir"`
}

// Resharder crash points, in phase order: each leaves the fabric exactly as
// a resharder process killed at that phase boundary would.
const (
	ReshardCrashPreCopy    sim.CrashPoint = "reshard.pre-copy"            // window open + control persisted, nothing copied
	ReshardCrashMidCopy    sim.CrashPoint = "reshard.mid-copy"            // first batch durable, the pool's others in flight, the rest not sent
	ReshardCrashPreCutover sim.CrashPoint = "reshard.pre-cutover"         // copy complete, both epochs still live
	ReshardCrashPreGC      sim.CrashPoint = "reshard.post-cutover-pre-gc" // cutover persisted, old-shard garbage intact
)

// GCPending reports whether a cutover's old-shard garbage still awaits
// collection (a resharder died between cutover and GC).
func (d *Deployment) GCPending() bool {
	d.reshardMu.Lock()
	defer d.reshardMu.Unlock()
	return d.gcPending
}

func (d *Deployment) setGCPending(v bool) {
	d.reshardMu.Lock()
	d.gcPending = v
	d.reshardMu.Unlock()
}

// persistControl writes the fabric control object reflecting the current
// directory state.
func (d *Deployment) persistControl(state string, target *Topology) error {
	c := FabricControl{
		State:    state,
		Topology: d.Topo,
		Target:   target,
		WALDir:   d.WAL.Directory().Snapshot(),
		DBDir:    d.DB.Directory().Snapshot(),
	}
	b, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("core: encoding fabric control: %w", err)
	}
	return d.Store.Put(FabricControlKey, b, nil)
}

// valid reports whether a control record is one persistControl could have
// written: a known state, a topology inside 1..MaxShards, and a valid target
// exactly when migrating.
func (c FabricControl) valid() bool {
	inRange := func(t Topology) bool { return t == t.normalized() }
	if c.State == ControlMigrating {
		return c.Target != nil && inRange(*c.Target) && inRange(c.Topology)
	}
	return (c.State == ControlStable || c.State == ControlGC) && inRange(c.Topology)
}

// ReadControl fetches the persisted fabric control object; ok is false when
// no reshard ever ran (or its object is not yet visible), never on an error.
// A record that decodes but is not valid is an error: resuming from it would
// reshard to a width no resharder chose.
func (d *Deployment) ReadControl() (FabricControl, bool, error) {
	o, err := d.Store.Get(FabricControlKey)
	if errors.Is(err, store.ErrNoSuchKey) {
		return FabricControl{}, false, nil
	}
	if err != nil {
		return FabricControl{}, false, err
	}
	var c FabricControl
	if err := json.Unmarshal(o.Data, &c); err != nil {
		return FabricControl{}, false, fmt.Errorf("core: decoding fabric control: %w", err)
	}
	if !c.valid() {
		return FabricControl{}, false, fmt.Errorf("core: invalid fabric control: state %q, topology %+v, target %+v",
			c.State, c.Topology, c.Target)
	}
	return c, true, nil
}

// ReshardStats reports what one Reshard (or resume) did.
type ReshardStats struct {
	From, To    Topology
	Epoch       int // active DB epoch id after completion
	CopiedItems int // provenance items durably streamed to their new homes
	CopyBatches int // BatchPutAttributes requests that carried them
	GCItems     int // stale copies deleted from drained ranges
	GCBatches   int // BatchDeleteAttributes requests that carried them
	WALMigrated int // messages moved off decommissioned queues (shrink)
}

// reshardCopyPage bounds one copy- or GC-scan SELECT page: large enough to
// amortize the per-request latency, small enough that the flush pool has
// work within one SELECT of the scan starting.
const reshardCopyPage = 200

// reshardConns bounds the copier's and GC's concurrent service calls: the
// batches in flight on the flush pool, and the shards scanned at once.
const reshardConns = 16

// ErrReshardInFlight is returned when a second resharder races an open one.
var ErrReshardInFlight = errors.New("core: reshard already in flight")

// ResumeReshard recovers a migration whose resharder died: it reads the
// persisted control object and rolls the fabric forward to the recorded
// target. resumed is false when there is nothing to recover.
func ResumeReshard(ctx context.Context, dep *Deployment) (ReshardStats, bool, error) {
	c, ok, err := dep.ReadControl()
	if err != nil {
		return ReshardStats{}, false, err
	}
	if !ok || c.State == ControlStable {
		// The control object was PUT moments before the crash, and an
		// eventually consistent read may still serve its absence or a
		// previous reshard's "stable" version. The open window itself is
		// authoritative: if either directory is mid-transition (or a
		// cutover's GC is pending), roll forward from that state instead of
		// abandoning a double-write window that would otherwise stay open
		// forever.
		target := dep.activeTopology()
		open := dep.GCPending()
		if t, migrating := dep.DB.Directory().Target(); migrating {
			target.DBShards, open = t.Shards, true
		}
		if t, migrating := dep.WAL.Directory().Target(); migrating {
			target.WALShards, open = t.Shards, true
		}
		if !open {
			return ReshardStats{}, false, nil
		}
		stats, err := dep.Reshard(ctx, target)
		return stats, true, err
	}
	target := c.Topology
	if c.State == ControlMigrating {
		target = *c.Target
	}
	if c.State == ControlGC {
		dep.setGCPending(true)
	}
	stats, err := dep.Reshard(ctx, target)
	return stats, true, err
}

// activeTopology derives the current topology from the directories (which
// are internally locked) — the race-free way to read the fabric size while
// a resharder may be running.
func (d *Deployment) activeTopology() Topology {
	return Topology{
		WALShards: d.WAL.Directory().Active().Shards,
		DBShards:  d.DB.Directory().Active().Shards,
	}
}

// Reshard grows or shrinks the live fabric to target without stopping
// ingest. It is safe to re-run toward the same target after a crash — every
// phase is idempotent — and returns sim.ErrCrashed when an armed crash
// point fires.
func (d *Deployment) Reshard(ctx context.Context, target Topology) (ReshardStats, error) {
	target = target.normalized()
	stats := ReshardStats{To: target}
	// One resharder at a time: concurrent runs are refused outright (no
	// blocking — the caller of a long migration should not be ambushed by
	// queueing behind another one), and a crashed migration can only be
	// resumed toward its own target, never redirected mid-flight. Topo is
	// only read or written under this lock while a resharder can exist, so
	// the stats snapshot below cannot tear against a racing cutover.
	if !d.reshardRunMu.TryLock() {
		return stats, ErrReshardInFlight
	}
	defer d.reshardRunMu.Unlock()
	stats.From = d.Topo
	if t, ok := d.DB.Directory().Target(); ok && t.Shards != target.DBShards {
		return stats, ErrReshardInFlight
	}
	if t, ok := d.WAL.Directory().Target(); ok && t.Shards != target.WALShards {
		return stats, ErrReshardInFlight
	}

	// Phase 1 — prepare: open the epoch transitions (idempotent: an open
	// migration to the same target resumes) and persist the control object
	// before the window becomes load-bearing. A grow splits the hottest
	// hash ranges: unless a controller already staged windowed load hints,
	// derive them from the meter's cumulative per-endpoint op counts.
	d.installSplitLoads(target)
	_, _, dbDone := d.DB.BeginMigration(target.DBShards)
	_, _, walDone := d.WAL.BeginMigration(target.WALShards)
	if dbDone && walDone {
		if !d.GCPending() {
			stats.Epoch = d.DB.Directory().Epoch()
			return stats, nil // already at target, nothing pending
		}
		// Crash landed between cutover and GC: only phase 5 remains.
		err := d.finishReshardGC(ctx, target, &stats)
		stats.Epoch = d.DB.Directory().Epoch()
		return stats, err
	}
	if err := d.persistControl(ControlMigrating, &target); err != nil {
		return stats, err
	}
	if d.Env.Crashed(ReshardCrashPreCopy) {
		return stats, fmt.Errorf("%w: resharder at %s", sim.ErrCrashed, ReshardCrashPreCopy)
	}

	// Phase 2 — barrier: wait out writes that routed before the window
	// opened, so the copy scan below cannot miss a single-home write still
	// in flight toward its old shard.
	d.DB.DrainPriorWrites()
	d.WAL.DrainPriorWrites()

	// Phase 3 — copy.
	if err := d.reshardCopy(ctx, &stats); err != nil {
		return stats, err
	}
	// Visibility barrier: freshly copied items are eventually consistent on
	// their new homes, and after cutover reads route there *alone*. Wait
	// out the staleness window while the union-read window still covers
	// every item through its old home — otherwise a long-settled item could
	// transiently vanish right after cutover, which a static deployment
	// would never do.
	d.Env.Clock().Sleep(d.Env.Config().StalenessMean * 20)
	if d.Env.Crashed(ReshardCrashPreCutover) {
		return stats, fmt.Errorf("%w: resharder at %s", sim.ErrCrashed, ReshardCrashPreCutover)
	}
	if err := ctx.Err(); err != nil {
		return stats, err
	}

	// Phase 4 — cutover: promote the target epoch on both directories,
	// publish the new topology, and persist the pending-GC state.
	d.DB.Cutover()
	d.WAL.Cutover()
	d.Topo = target
	d.setGCPending(true)
	if err := d.persistControl(ControlGC, nil); err != nil {
		return stats, err
	}
	if d.Env.Crashed(ReshardCrashPreGC) {
		return stats, fmt.Errorf("%w: resharder at %s", sim.ErrCrashed, ReshardCrashPreGC)
	}

	// Phase 5 — GC the drained ranges and retire decommissioned shards.
	err := d.finishReshardGC(ctx, target, &stats)
	stats.Epoch = d.DB.Directory().Epoch()
	return stats, err
}

// installSplitLoads stages per-shard op counts as split-load hints on any
// axis about to grow, so BeginMigration splits the hottest range rather than
// the widest. A hint a controller staged first (windowed deltas, a better
// signal than lifetime totals) is left alone; axes that are shrinking,
// already migrating, or have seen no traffic get none — the widest-range
// fallback keeps the historical geometry.
func (d *Deployment) installSplitLoads(target Topology) {
	u := d.Env.Meter().Usage()
	stage := func(dir *sim.Directory, toK int, name func(int) string, k int) {
		if dir.Migrating() || dir.HasSplitLoad() || toK <= dir.Active().Shards {
			return
		}
		load := make(map[int]int64, k)
		total := int64(0)
		for i := 0; i < k; i++ {
			load[i] = u.OpsByEndpoint[name(i)]
			total += load[i]
		}
		if total > 0 {
			dir.SetSplitLoad(load)
		}
	}
	stage(d.DB.Directory(), target.DBShards, func(i int) string {
		if s := d.DB.Shard(i); s != nil {
			return s.Name()
		}
		return ""
	}, d.DB.Shards())
	stage(d.WAL.Directory(), target.WALShards, func(i int) string {
		if s := d.WAL.Shard(i); s != nil {
			return s.Name()
		}
		return ""
	}, d.WAL.Shards())
}

// reshardCopy streams every item whose target-epoch home differs from its
// active-epoch shard to that new home. The scan uses strongly consistent
// SELECTs (an eventually consistent page could hide a just-committed item
// long enough to lose it at cutover). One pass suffices: the write barrier
// ran before it, and everything newer double-writes. stats tallies only
// durably written items and the requests that carried them — batches whose
// put failed (or never ran) do not count.
func (d *Deployment) reshardCopy(ctx context.Context, stats *ReshardStats) error {
	targetEpoch, ok := d.DB.Directory().Target()
	if !ok {
		return nil // DB axis not migrating (WAL-only reshard)
	}
	activeEpoch := d.DB.Directory().Active()
	sources := make(map[int]bool)
	for _, r := range activeEpoch.Ranges {
		sources[r.Shard] = true
	}
	var srcs []int
	for s := 0; s < d.DB.Shards(); s++ {
		if sources[s] {
			srcs = append(srcs, s)
		}
	}
	// One flush pool for the whole copy: the scanners below run ahead of
	// their own writes and are paced only by the pool's bound.
	flush, fctx := par.NewGroup(ctx, reshardConns)
	var copied, batches atomic.Int64
	put := func(dst *sdb.Domain, reqs []sdb.PutRequest) error {
		return flush.Go(func() error {
			if err := dst.BatchPutAttributes(reqs); err != nil {
				return err
			}
			copied.Add(int64(len(reqs)))
			batches.Add(1)
			// The point fires once: exactly one durable batch trips the
			// mid-copy crash, with the rest of the pool still in flight —
			// as a killed resharder's requests would be.
			if d.Env.Crashed(ReshardCrashMidCopy) {
				return fmt.Errorf("%w: resharder at %s", sim.ErrCrashed, ReshardCrashMidCopy)
			}
			return nil
		})
	}
	// Source shards stream independently, so they scan in parallel.
	scanErr := par.ForEach(reshardConns, len(srcs), func(i int) error {
		return d.copyShard(fctx, srcs[i], targetEpoch, put)
	})
	err := flush.Wait()
	stats.CopiedItems, stats.CopyBatches = int(copied.Load()), int(batches.Load())
	if err == nil {
		err = scanErr
	}
	return err
}

// copyShard scans one source shard and hands its movers to put in batches:
// full ones as they fill, the per-target remainders at the end of the scan.
func (d *Deployment) copyShard(ctx context.Context, s int, targetEpoch sim.DirEpoch, put func(*sdb.Domain, []sdb.PutRequest) error) error {
	dom := d.DB.Shard(s)
	q := sdb.Query{Domain: dom.Name(), Consistent: true, Limit: reshardCopyPage}
	perTarget := make([][]sdb.PutRequest, targetEpoch.Shards) // by home, so the remainders flush in one order
	token := ""
	for {
		if err := ctx.Err(); err != nil {
			return context.Cause(ctx)
		}
		page, err := dom.SelectQuery(q, token)
		if err != nil {
			return err
		}
		for _, it := range page.Items {
			home := targetEpoch.Route(sdb.RouteKey(it.Name))
			if home == s {
				continue
			}
			batch := perTarget[home]
			if batch == nil {
				batch = make([]sdb.PutRequest, 0, sdb.MaxBatchItems)
			}
			batch = append(batch, sdb.PutRequest{Item: it.Name, Attrs: it.Attrs, Replace: true})
			if len(batch) == sdb.MaxBatchItems {
				if err := put(d.DB.Shard(home), batch); err != nil {
					return err
				}
				batch = nil // handed off to the pool
			}
			perTarget[home] = batch
		}
		if page.NextToken == "" {
			break
		}
		token = page.NextToken
	}
	for home, batch := range perTarget {
		if len(batch) == 0 {
			continue
		}
		if err := put(d.DB.Shard(home), batch); err != nil {
			return err
		}
	}
	return nil
}

// finishReshardGC collects the garbage a cutover leaves behind: stale item
// copies on shards that no longer own them, and — after a shrink — messages
// stranded on decommissioned WAL queues, which are re-sent to their
// new-epoch homes before the queues are retired. Idempotent, so
// ResumeReshard re-runs it if the resharder died first. stats tallies what
// was deleted and moved, and the requests that did it.
func (d *Deployment) finishReshardGC(ctx context.Context, target Topology, stats *ReshardStats) error {
	if d.DB.Directory().Migrating() || d.WAL.Directory().Migrating() {
		return fmt.Errorf("core: reshard GC before cutover")
	}
	// Writers that captured the double-write view before cutover may still
	// be applying; wait them out so the GC scan below sees their old-home
	// copies and removes them instead of leaving post-scan garbage. Then
	// wait out readers holding pre-cutover views: a query that snapshotted
	// a pre-migration, single-home routing view still resolves against the
	// old homes, and deleting under it would truncate its results.
	d.DB.DrainPriorWrites()
	d.DB.DrainPriorReads()
	activeEpoch := d.DB.Directory().Active()
	// Shard scans are independent and run in parallel, feeding one flush
	// pool, so the stale-copy window (double-counted ItemCount, extra
	// storage) closes in max(shard scan, batches ÷ pool rate).
	flush, fctx := par.NewGroup(ctx, reshardConns)
	var gcCount, gcBatches atomic.Int64
	scanErr := par.ForEach(reshardConns, d.DB.Shards(), func(s int) error {
		dom := d.DB.Shard(s)
		q := sdb.Query{Domain: dom.Name(), ItemOnly: true, Consistent: true, Limit: reshardCopyPage}
		token := ""
		for {
			if err := fctx.Err(); err != nil {
				return context.Cause(fctx)
			}
			page, err := dom.SelectQuery(q, token)
			if err != nil {
				return err
			}
			var stale []string
			for _, it := range page.Items {
				if activeEpoch.Route(sdb.RouteKey(it.Name)) != s {
					stale = append(stale, it.Name)
				}
			}
			for batch := range slices.Chunk(stale, sdb.MaxBatchItems) {
				err := flush.Go(func() error {
					if err := dom.BatchDeleteAttributes(batch); err != nil {
						return err
					}
					gcCount.Add(int64(len(batch)))
					gcBatches.Add(1)
					return nil
				})
				if err != nil {
					return err
				}
			}
			if page.NextToken == "" {
				return nil
			}
			// Deleting behind the cursor does not disturb the name-ordered
			// continuation: the token names the last emitted item, and the
			// scan resumes strictly after it whether or not it still exists.
			token = page.NextToken
		}
	})
	err := flush.Wait()
	stats.GCItems, stats.GCBatches = int(gcCount.Load()), int(gcBatches.Load())
	if err == nil {
		err = scanErr
	}
	if err != nil {
		return err
	}

	// Shrink: move stranded messages off decommissioned queues, then retire
	// the empty slots on both axes.
	d.WAL.DrainPriorWrites()
	for s := target.WALShards; s < d.WAL.Shards(); s++ {
		q := d.WAL.Shard(s)
		if q == nil {
			continue
		}
		moved, err := d.migrateQueue(ctx, q)
		stats.WALMigrated += moved
		if err != nil {
			return err
		}
	}
	d.WAL.ShrinkTo(target.WALShards)
	d.DB.ShrinkTo(target.DBShards)
	d.setGCPending(false)
	return d.persistControl(ControlStable, nil)
}

// migrateQueue drains one decommissioned WAL queue, re-sending every packet
// to its transaction's new-epoch home queue: each received page goes out as
// one SendMessageBatchEntries per home queue and comes off the old queue in
// one DeleteMessageBatch. The entries carry the packet's own idempotency
// token (walToken), so a send retried after an ambiguous fault — or a page
// received again because its delete failed — never enqueues a packet twice.
// Its receives grant the WAL's visibility (sqs.QueueSet.Visibility). A
// message a daemon is holding invisible reappears within the longest
// visibility timeout a receive has granted on q (sqs.Queue.Granted), which a
// commit daemon sizes from its own holds (see P3), so the drain sleeps and
// retries until the queue reports empty.
func (d *Deployment) migrateQueue(ctx context.Context, q *sqs.Queue) (int, error) {
	moved := 0
	idle := 0
	var msgs []sqs.Message
	for q.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return moved, err
		}
		msgs = q.Receive(msgs[:0], sqs.MaxBatchEntries, d.WAL.Visibility())
		if len(msgs) == 0 {
			idle++
			if idle > 400 {
				return moved, fmt.Errorf("core: decommissioned queue %s will not drain (%d messages held)", q.Name(), q.Len())
			}
			// Invisible messages: wait out the longest grant. Each poll waits
			// a staleness mean or 1/200 of the grant, whichever is longer, so
			// 400 of them outlast the grant and 200 means more.
			d.Env.Clock().Sleep(max(d.Env.Config().StalenessMean, q.Granted()/200))
			continue
		}
		idle = 0
		n, err := d.resendWAL(ctx, msgs)
		moved += n
		if err != nil {
			return moved, err
		}
		receipts := make([]string, len(msgs))
		for i, m := range msgs {
			receipts[i] = m.ReceiptHandle
		}
		if err := q.DeleteMessageBatch(receipts); err != nil {
			return moved, err
		}
	}
	d.Env.Meter().CountOp("reshard.walMigrate", int64(moved))
	return moved, nil
}

// resendWAL re-sends one received page of WAL packets, one batch per home
// queue, and reports how many it moved. Undecodable packets are skipped:
// they are dropped with their queue, exactly as retention would have
// expired them.
func (d *Deployment) resendWAL(ctx context.Context, msgs []sqs.Message) (int, error) {
	var homes []*sqs.Queue // first-seen order, so a seed replays the same sends
	entries := make(map[*sqs.Queue][]sqs.BatchEntry)
	for _, m := range msgs {
		pkt, err := decodeWAL(m.Body)
		if err != nil {
			continue
		}
		id := pkt.Txn.String()
		home, release := d.WAL.HomeQueue(id)
		defer release() // keeps a later shrink from retiring home mid-send
		if entries[home] == nil {
			homes = append(homes, home)
		}
		// A copy: the old queue recycles m.Body once this page's receipts are deleted.
		body := append(sqs.NewBody(len(m.Body)), m.Body...)
		entries[home] = append(entries[home], sqs.BatchEntry{Body: body, Token: walToken(id, pkt.Seq)})
	}
	moved := 0
	for _, home := range homes {
		if _, err := home.SendMessageBatchEntries(ctx, entries[home]); err != nil {
			return moved, err
		}
		moved += len(entries[home])
	}
	return moved, nil
}

// AuditFabric scans every live domain shard with consistent reads and
// verifies placement: every item lives on exactly its active-epoch home.
// It returns the number of misplaced items (on a foreign shard — lost
// capacity or pending GC) and duplicated items (present on more than one
// shard). A settled, fully reshard-completed fabric must report 0/0; the
// reshard benchmark gates on it.
func AuditFabric(d *Deployment) (misplaced, duplicates int, err error) {
	if d.DB.Directory().Migrating() {
		return 0, 0, fmt.Errorf("core: audit during migration")
	}
	epoch := d.DB.Directory().Active()
	seen := make(map[string]int)
	var r sdb.Result // each shard's drain replaces the last's; seen keeps the names
	for s := 0; s < d.DB.Shards(); s++ {
		dom := d.DB.Shard(s)
		if err := dom.Drain(sdb.Query{Domain: dom.Name(), ItemOnly: true, Consistent: true}, &r); err != nil {
			return 0, 0, err
		}
		for _, it := range r.Items {
			if epoch.Route(sdb.RouteKey(it.Name)) != s {
				misplaced++
			}
			seen[it.Name]++
		}
	}
	for _, n := range seen {
		if n > 1 {
			duplicates += n - 1
		}
	}
	return misplaced, duplicates, nil
}
