package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/query"
	"passcloud/internal/uuid"
)

// The live workloads run on the scaled clock at liveScale, where modelled
// service latency dominates and the Go code is a small share of wall time,
// and report simulated milliseconds. Load is open loop: arrivals are sent on
// a seeded Poisson schedule regardless of how earlier ones fare, and every
// latency is timed from the arrival's due time, so a stall charges the
// requests queued behind it.

const (
	liveWarmup      = 10 * time.Second // simulated; excluded from every metric
	liveDaemonPoll  = time.Second
	liveCheckpoint  = 5 * time.Second
	liveControlStep = 5 * time.Second
	liveDrainLimit  = 60 * time.Second
	liveLateLimit   = 250 * time.Millisecond // generator lateness p99 beyond which the run did not offer its load
	liveMaxRepeats  = 2
	liveQueryAge    = 6 * time.Second // queries target files durable at least this long (beyond any staleness window)
	liveCPUShareMax = 0.25            // see README, "Two clocks"
)

// liveSpec describes one live workload.
type liveSpec struct {
	fab        fabricSpec
	split      []float64 // cumulative share of commit arrivals per tenant
	commitRate float64   // transactions per simulated second
	queryRate  float64   // queries per simulated second (0: none)
	dataShare  float64   // share of transactions carrying a 4 KB data object
	reviseP    float64   // share of file writes that revise an earlier file
	preload    int       // transactions committed and settled before going live
	reshardTo  int       // >0: explicit Reshard to this K, reshardAt into the load
	reshardAt  time.Duration
	// liveDurable takes durable_p50_ms and durable_p95_ms from the live
	// run. Where it is false they come from the idle probe and the live
	// distribution stays a per-layer reading (core.ack_to_durable_ms_*).
	liveDurable bool
}

// liveInput is everything generated from the seed for one live run.
type liveInput struct {
	preload []txn
	txns    []txn
	due     []time.Duration // commit arrival due times, offsets from the start of load
	qdue    []time.Duration
	qrank   []int // zipf rank of each query's target among the eligible files
	total   time.Duration
	warmup  time.Duration
	items   int // provenance items the whole run commits
	// writers lists, per file object, the run's transactions that write a
	// version of it; a query leaves alone a file with a write in flight.
	writers map[uuid.UUID][]int32
}

func genLive(seed int64, s liveSpec, measured time.Duration) liveInput {
	in := liveInput{warmup: min(liveWarmup, measured/2)}
	in.total = in.warmup + measured
	var ids []string
	for _, t := range s.fab.tenants {
		ids = append(ids, t.id)
	}
	g := &liveGen{r: newRNG(seed, "live/txns"), tenants: ids, split: s.split, dataShare: s.dataShare, reviseP: s.reviseP}
	for i := 0; i < s.preload; i++ {
		t := g.next()
		t.obj = core.FileObject{} // the preload is provenance only
		in.preload = append(in.preload, t)
		in.items += len(t.bundles)
	}
	in.due = poisson(newRNG(seed, "live/arrivals"), s.commitRate, in.total)
	in.writers = make(map[uuid.UUID][]int32)
	for i := range in.due {
		t := g.next()
		in.txns = append(in.txns, t)
		in.items += len(t.bundles)
		if len(t.bundles) > 1 {
			u := t.bundles[1].Ref.UUID
			in.writers[u] = append(in.writers[u], int32(i))
		}
	}
	if s.queryRate > 0 {
		in.qdue = poisson(newRNG(seed, "live/query-arrivals"), s.queryRate, in.total)
		in.qrank = zipfRanks(newRNG(seed, "live/query-ranks"), len(in.qdue), 1<<20)
	}
	return in
}

// liveResult is what one live run observed.
type liveResult struct {
	f  *fabric
	in liveInput

	ackAt     []time.Duration // simulated time each Commit returned (offset from load start)
	callAt    []time.Duration // simulated time each Commit was called
	cerr      []error
	durableAt []atomic.Int64 // simulated ns (offset) the transaction's items were named in a CommitNotice; 0 = not yet
	late      sample         // generator lateness per post-warm-up arrival, simulated ms

	qlat  []time.Duration // per query, due -> result stream drained
	qerr  []error
	qspec []query.Spec

	backlog                  sample // WAL messages, sampled once per simulated second of the measured window
	gateSQS, gateSDB, gateS3 sample
	overshootPct             sample

	region     rtDelta
	usage      usageDelta
	drainS     float64 // simulated seconds from last ack to everything durable
	endBacklog float64

	reshard        core.ReshardStats
	reshardWindow  time.Duration
	reshardFrom    time.Duration // offset of the Reshard call
	reshardBilled  int64
	itemsAtReshard int

	stepUS     sample
	ckptMs     sample
	eligibleMu sync.Mutex
	eligible   []eligibleFile
}

type eligibleFile struct {
	at  time.Duration // simulated offset it became durable (negative: preloaded)
	ref prov.Ref
	pth string
}

// newLiveRun builds the fabric on the manual clock and preloads it; its
// files are query targets from t=0. This is the live workloads' repeated
// set-up.
func newLiveRun(s liveSpec, in liveInput) (*liveResult, error) {
	f, err := newFabric(s.fab)
	if err != nil {
		return nil, err
	}
	res := &liveResult{f: f, in: in}
	n := len(in.txns)
	res.ackAt, res.callAt, res.cerr = make([]time.Duration, n), make([]time.Duration, n), make([]error, n)
	res.durableAt = make([]atomic.Int64, n)
	res.qlat, res.qerr, res.qspec = make([]time.Duration, len(in.qdue)), make([]error, len(in.qdue)), make([]query.Spec, len(in.qdue))
	for _, t := range in.preload {
		if err := f.commit(t); err != nil {
			f.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
		if len(t.bundles) > 1 {
			b := t.bundles[1]
			res.eligible = append(res.eligible, eligibleFile{at: -time.Hour, ref: b.Ref, pth: b.Name})
		}
	}
	if len(in.preload) > 0 {
		if err := f.p3.Settle(); err != nil {
			f.close()
			return nil, fmt.Errorf("preload settle: %w", err)
		}
		f.dep.Settle()
	}
	return res, nil
}

// run goes live, offers the load, drains, stops the daemons and flips back
// to the manual clock for the epilogue.
func (res *liveResult) run(h *harness, s liveSpec) error {
	f, in := res.f, res.in
	n := len(in.txns)

	// Item name -> arrival index, for the durable timestamps.
	byItem := make(map[string]int32, in.items)
	for i, t := range in.txns {
		for _, b := range t.bundles {
			byItem[b.Ref.String()] = int32(i)
		}
	}
	var durable atomic.Int64
	t0 := f.env.Now() // load start on the simulated clock; going live preserves it
	unsub := f.dep.Commits.Subscribe(func(nt core.CommitNotice) int64 {
		at := f.env.Now() - t0
		for _, it := range nt.Items {
			i, ok := byItem[it.Name]
			if !ok {
				continue
			}
			if res.durableAt[i].CompareAndSwap(0, int64(max(at, 1))) {
				durable.Add(1)
				h.tr.point(int64(i+1), 0, "notice")
				if t := in.txns[i]; len(t.bundles) > 1 {
					b := t.bundles[1]
					res.eligibleMu.Lock()
					res.eligible = append(res.eligible, eligibleFile{at: at, ref: b.Ref, pth: b.Name})
					res.eligibleMu.Unlock()
				}
			}
		}
		return 0
	})
	f.detach = append(f.detach, unsub)

	runtime.GC() // start the clock-bound region without allocator debt
	live0 := time.Now()
	f.goLive()
	f.startDaemons(liveDaemonPoll)
	if h.tr != nil {
		h.tr.now = func() time.Duration { return f.env.Now() - t0 }
	}

	// Background actors the harness drives itself, so each call is a span:
	// the backlog/gate sampler, the log checkpointer, the controller
	// stepper, the clock-overshoot meter and the resharder.
	stopBG := make(chan struct{})
	var bg sync.WaitGroup
	every := func(d time.Duration, fn func()) {
		bg.Add(1)
		go func() {
			defer bg.Done()
			next := f.env.Now() + d
			for {
				f.env.Clock().SleepUntil(next)
				select {
				case <-stopBG:
					return
				default:
				}
				fn()
				next += d
			}
		}()
	}
	measuring := func() bool { now := f.env.Now() - t0; return now >= in.warmup && now <= in.total }
	var bgMu sync.Mutex
	every(time.Second, func() {
		if !measuring() {
			return
		}
		var wal int
		for _, v := range f.dep.WAL.ShardBacklog() {
			wal += v
		}
		var sqsD, sdbD, s3D float64
		for name, d := range f.env.GateDepths() {
			switch {
			case strings.HasPrefix(name, "sqs"):
				sqsD = math.Max(sqsD, d)
			case strings.HasPrefix(name, "sdb-write"):
				sdbD = math.Max(sdbD, d)
			case strings.HasPrefix(name, "s3-write"):
				s3D = math.Max(s3D, d)
			}
		}
		bgMu.Lock()
		res.backlog = append(res.backlog, float64(wal))
		res.gateSQS, res.gateSDB, res.gateS3 = append(res.gateSQS, sqsD), append(res.gateSDB, sdbD), append(res.gateS3, s3D)
		bgMu.Unlock()
	})
	if f.log != nil {
		every(liveCheckpoint, func() {
			c0 := f.env.Now()
			sp := h.tr.start(0, 0, "Log.Checkpoint")
			_, err := f.log.Checkpoint() // a transient failure is absorbed: the next tick rolls forward
			h.tr.end(sp)
			if err == nil && measuring() {
				bgMu.Lock()
				res.ckptMs = append(res.ckptMs, ms(f.env.Now()-c0))
				bgMu.Unlock()
			}
		})
	}
	if f.ctl != nil {
		every(liveControlStep, func() {
			w0 := time.Now()
			sp := h.tr.start(0, 0, "Controller.Step")
			err := f.ctl.Step(context.Background())
			h.tr.end(sp)
			if err == nil {
				bgMu.Lock()
				res.stepUS = append(res.stepUS, float64(time.Since(w0))/float64(time.Microsecond))
				bgMu.Unlock()
			}
		})
	}
	if h.tr != nil {
		const ask = 100 * time.Millisecond
		every(time.Second, func() {
			a := f.env.Now()
			f.env.Clock().Sleep(ask)
			got := f.env.Now() - a
			bgMu.Lock()
			res.overshootPct = append(res.overshootPct, 100*float64(got-ask)/float64(ask))
			bgMu.Unlock()
		})
	}
	// The resharder. Its window is the double-write window — Reshard call to
	// cutover, when the directory promotes the target epoch — which is what
	// ingest feels and what a faster copy shortens. The GC that follows
	// deletes one stale item per request at the old shard's write gate and
	// runs on for hundreds of simulated seconds beside the load; whatever
	// of it is left when the load has drained completes on the manual clock
	// (below), where it costs requests but no wall time.
	var reshardErr error
	reshardDone := make(chan struct{})
	var cutoverAt atomic.Int64
	if s.reshardTo > 0 {
		res.reshardFrom = min(s.reshardAt, in.total/4)
		epoch0 := f.dep.DB.Directory().Epoch()
		go func() {
			defer close(reshardDone)
			f.env.Clock().SleepUntil(t0 + res.reshardFrom)
			res.itemsAtReshard = f.dep.DB.ItemCount()
			del0 := f.env.Meter().Usage().OpsByKind["sdb.DeleteAttributes"]
			sp := h.tr.start(0, 0, "Deployment.Reshard")
			res.reshard, reshardErr = f.dep.Reshard(context.Background(), core.Topology{WALShards: s.reshardTo, DBShards: s.reshardTo})
			h.tr.end(sp)
			deletes := f.env.Meter().Usage().OpsByKind["sdb.DeleteAttributes"] - del0
			res.reshardBilled = deletes + int64(res.reshard.CopiedItems+24)/25
		}()
		every(100*time.Millisecond, func() {
			if cutoverAt.Load() == 0 && f.dep.DB.Directory().Epoch() != epoch0 {
				cutoverAt.Store(int64(f.env.Now() - t0))
			}
		})
	} else {
		close(reshardDone)
	}

	// The open loop: merge the two arrival streams by due time.
	var ops sync.WaitGroup
	var r0 rtSnap
	var u0 = f.env.Meter().Usage()
	started := false
	ci, qi := 0, 0
	for ci < len(in.due) || qi < len(in.qdue) {
		isQuery := ci >= len(in.due) || (qi < len(in.qdue) && in.qdue[qi] < in.due[ci])
		due := in.due[min(ci, len(in.due)-1)]
		if isQuery {
			due = in.qdue[qi]
		}
		f.env.Clock().SleepUntil(t0 + due)
		if due >= in.warmup {
			if !started {
				started = true
				h.warmupS = time.Since(live0).Seconds()
				u0, r0 = f.env.Meter().Usage(), readRT()
			}
			res.late = append(res.late, ms(f.env.Now()-t0-due))
		}
		ops.Add(1)
		if isQuery {
			go func(i int) {
				defer ops.Done()
				res.runQuery(h, i, t0)
			}(qi)
			qi++
		} else {
			go func(i int) {
				defer ops.Done()
				res.callAt[i] = f.env.Now() - t0
				sp := h.tr.start(int64(i+1), 0, "Tenant.Commit")
				res.cerr[i] = f.commit(in.txns[i])
				h.tr.end(sp)
				res.ackAt[i] = f.env.Now() - t0
			}(ci)
			ci++
		}
	}
	ops.Wait()
	if !started {
		close(stopBG)
		bg.Wait()
		f.toManual()
		<-reshardDone
		return fmt.Errorf("invalid run: no arrival fell after the warm-up")
	}
	loadEnd := f.env.Now()

	// Drain on the live clock, daemons running, until every transaction of
	// the run has been named in a notice.
	for durable.Load() < int64(n) {
		if f.env.Now()-loadEnd > liveDrainLimit {
			break
		}
		f.env.Clock().Sleep(250 * time.Millisecond)
	}
	res.drainS = (f.env.Now() - loadEnd).Seconds()
	r1 := readRT()
	res.region = r1.since(r0)
	res.usage = usageSince(f.env.Meter().Usage(), u0)

	close(stopBG)
	bg.Wait()
	// Daemons stop before the clock flips: see fabric.toManual. A reshard
	// still collecting garbage finishes once nothing sleeps.
	f.toManual()
	<-reshardDone
	if s.reshardTo > 0 {
		if c := time.Duration(cutoverAt.Load()); c > 0 {
			res.reshardWindow = c - res.reshardFrom
		} else if reshardErr == nil && h.cfg.size == 1 {
			return fmt.Errorf("invalid run: the reshard had not cut over when the load had drained")
		}
	}
	if reshardErr != nil {
		return fmt.Errorf("reshard under load: %w", reshardErr)
	}
	if got := durable.Load(); got < int64(n) {
		return fmt.Errorf("invalid run: %d of %d transactions not durable %s after the load ended", int64(n)-got, n, liveDrainLimit)
	}
	if k := len(res.backlog); k > 0 {
		tail := res.backlog[max(0, k-5):]
		res.endBacklog = tail.mean()
	}
	return nil
}

// runQuery executes live query i against the cached engine: an ancestors
// walk, a version listing or an attribute find, in turn, over a file drawn
// by the query's zipf rank from those durable for at least liveQueryAge,
// most recent first.
func (res *liveResult) runQuery(h *harness, i int, t0 time.Duration) {
	f := res.f
	now := f.env.Now() - t0
	// settled reports whether every version of the file offered so far has
	// been durable for liveQueryAge. A cached observation taken while a
	// revision is inside its staleness window can outlive the notice that
	// should have invalidated it (README, "Found on the way"), so the
	// workload reads only files with no write in flight.
	settled := func(u uuid.UUID) bool {
		for _, w := range res.in.writers[u] {
			if res.in.due[w] > now+time.Second {
				break
			}
			if d := time.Duration(res.durableAt[w].Load()); d == 0 || d > now-liveQueryAge {
				return false
			}
		}
		return true
	}
	res.eligibleMu.Lock()
	hi := sort.Search(len(res.eligible), func(k int) bool { return res.eligible[k].at > now-liveQueryAge })
	var target eligibleFile
	found := false
	for try, k := 0, res.in.qrank[i]; try < 64 && hi > 0 && !found; try, k = try+1, k+1 {
		target = res.eligible[hi-1-k%hi]
		found = settled(target.ref.UUID)
	}
	res.eligibleMu.Unlock()
	if !found {
		res.qerr[i] = fmt.Errorf("no settled file durable for %s yet", liveQueryAge)
		return
	}
	var spec query.Spec
	switch i % 3 {
	case 0:
		spec = query.Spec{Roots: query.Roots{Refs: []prov.Ref{target.ref}}, Direction: query.Ancestors, Project: query.ProjectBundles}
	case 1:
		spec = query.Spec{Roots: query.Roots{UUIDs: []uuid.UUID{target.ref.UUID}}, Direction: query.Versions, Project: query.ProjectBundles}
	default:
		spec = query.Spec{Roots: query.Roots{Attrs: []query.AttrMatch{{Attr: prov.AttrName, Value: target.pth}}}, Direction: query.Self}
	}
	res.qspec[i] = spec
	sp := h.tr.start(int64(len(res.in.txns)+i+1), 0, "Engine.Run")
	n := 0
	for _, err := range f.engine.Run(spec) {
		if err != nil {
			res.qerr[i] = err
			break
		}
		n++
	}
	h.tr.end(sp)
	if res.qerr[i] == nil && n == 0 {
		res.qerr[i] = fmt.Errorf("no results for %s of a durable file", spec.Direction)
	}
	res.qlat[i] = f.env.Now() - t0 - res.in.qdue[i]
}

// replayQueries is fabric_mixed's share of the oracle — cached == uncached:
// a sample of 200 of the run's queries replayed, once everything is settled,
// on the live (still subscribed) cached engine and on a fresh uncached one,
// with identical result digests. It also reads the cache's counters.
func (res *liveResult) replayQueries(h *harness) error {
	f := res.f
	f.dep.Settle()
	cs := f.engine.Cache().Stats()
	h.m.set("query.cache.hit_ratio", ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses)))
	h.m.set("query.cache.invalidations", float64(cs.Invalidations))
	h.m.set("query.cache.coherence_hits", float64(cs.CoherenceHits))
	h.m.set("query.cache.evictions", float64(cs.Evictions))
	fresh := query.New(f.dep, core.BackendSDB)
	same, replayed := 0, 0
	firstDiff := ""
	for i := 0; i < len(res.qspec) && replayed < 200; i += max(1, len(res.qspec)/200) {
		if res.qerr[i] != nil || res.qspec[i].Roots.IsZero() {
			continue
		}
		a, _, err := resultDigest(f.engine, res.qspec[i])
		if err != nil {
			return fmt.Errorf("oracle: cached replay: %w", err)
		}
		b, _, err := resultDigest(fresh, res.qspec[i])
		if err != nil {
			return fmt.Errorf("oracle: uncached replay: %w", err)
		}
		replayed++
		if a == b {
			same++
		} else if firstDiff == "" {
			firstDiff = fmt.Sprintf("%s of %+v", res.qspec[i].Direction, res.qspec[i].Roots)
		}
	}
	h.m.set("query.cached_eq_uncached", float64(same))
	h.note("query_replay", map[string]int{"replayed": replayed, "identical": same})
	if same != replayed {
		return fmt.Errorf("oracle: %d of %d replayed queries differ between the cached and the uncached engine (first: %s)", replayed-same, replayed, firstDiff)
	}
	return nil
}

// liveLatencies folds a run's commits into the client-observed samples,
// over arrivals due inside [from, to). A failed or shed commit counts as
// missing any latency limit: it enters the samples as +Inf.
func (res *liveResult) liveLatencies(from, to time.Duration) (commit, durable, ackOnly, ackToDurable sample, failed int) {
	for i, due := range res.in.due {
		if due < from || due >= to {
			continue
		}
		if res.cerr[i] != nil {
			failed++
			commit, durable = append(commit, math.Inf(1)), append(durable, math.Inf(1))
			continue
		}
		d := time.Duration(res.durableAt[i].Load())
		commit = append(commit, ms(res.ackAt[i]-due))
		durable = append(durable, ms(d-due))
		ackOnly = append(ackOnly, ms(res.ackAt[i]-res.callAt[i]))
		ackToDurable = append(ackToDurable, ms(d-res.ackAt[i]))
	}
	return
}

// liveWorkload runs a live workload end to end: repeated set-up, the run
// itself (repeated, at most twice, if the generator ran late), validity
// checks, metrics, epilogue.
func liveWorkload(h *harness, s liveSpec) error {
	measured := time.Duration(h.cfg.seconds * liveScale * float64(time.Second))
	// Set-up (generation, construction, preload) is cheap here, so it is
	// done three times over and the last kept; the run adds its warm-up.
	h.setupOnce = time.Since(procStart).Seconds()
	var in liveInput
	var res *liveResult
	build := func() error {
		if res != nil {
			res.f.close()
		}
		var err error
		res, err = newLiveRun(s, in)
		return err
	}
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		in = genLive(h.cfg.seed, s, measured)
		if err := build(); err != nil {
			return err
		}
		h.setupSamples = append(h.setupSamples, time.Since(t0).Seconds())
	}
	defer func() { res.f.close() }()

	var lateP99 float64
	repeats := 0
	for {
		h.tr.reset()
		if err := res.run(h, s); err != nil {
			return err
		}
		lateP99 = res.late.pct(99)
		if lateP99 <= ms(liveLateLimit) || repeats == liveMaxRepeats {
			break
		}
		repeats++
		if err := build(); err != nil {
			return err
		}
	}
	h.note("repeats", repeats)
	h.note("generator_late_ms", map[string]any{"p50": res.late.pct(50), "p99": lateP99, "max": res.late.max(), "samples": len(res.late)})
	if lateP99 > ms(liveLateLimit) {
		return fmt.Errorf("invalid run: generator lateness p99 %.1f sim-ms after %d repeats; the stated load was not offered", lateP99, repeats)
	}
	f := res.f

	commit, durable, ackOnly, ackToDurable, failed := res.liveLatencies(in.warmup, in.total)
	events := 0
	for i, due := range in.due {
		if due >= in.warmup && res.cerr[i] == nil {
			events += len(in.txns[i].bundles)
		}
	}
	var qlat sample
	qfailed, qdone := 0, 0
	for i, due := range in.qdue {
		if due < in.warmup {
			continue
		}
		if res.qerr[i] != nil {
			qfailed++
			continue
		}
		qdone++
		qlat = append(qlat, ms(res.qlat[i]))
	}
	shed := 0
	for id, t := range res.usage.u1.OpsByTenant {
		shed += int(t.Shed - res.usage.u0.OpsByTenant[id].Shed)
	}
	h.attempted = len(commit) + qdone + qfailed
	h.failed = failed + qfailed
	h.note("commits", map[string]any{"attempted": len(commit), "failed": failed, "shed": shed})
	h.note("queries", map[string]any{"attempted": qdone + qfailed, "failed": qfailed})
	if failed > 0 || qfailed > 0 {
		first := ""
		for _, e := range append(res.cerr, res.qerr...) {
			if e != nil {
				first = e.Error()
				break
			}
		}
		h.note("first_error", first)
	}

	// Steady-state validity: the WAL backlog must not be growing, the drain
	// must be short, and the Go code must be a small share of wall time.
	midMean := res.backlog.mean()
	h.note("wal_backlog", map[string]any{"mid_mean": midMean, "end": res.endBacklog, "max": res.backlog.max(), "samples": len(res.backlog)})
	h.note("drain_sim_s", res.drainS)
	if res.endBacklog > 2*midMean+20 {
		return fmt.Errorf("invalid run: WAL backlog %.0f at end of load against a mid-run mean of %.0f: the fabric is not keeping up", res.endBacklog, midMean)
	}
	cpuShare := res.region.cpuShare()
	h.note("go_cpu_share", cpuShare)
	if h.cfg.size == 1 && cpuShare > liveCPUShareMax {
		return fmt.Errorf("invalid run: Go CPU is %.0f%% of wall on a live workload (limit %.0f%%): simulated latencies are contaminated", cpuShare*100, liveCPUShareMax*100)
	}
	if math.IsInf(commit.pct(95), 1) {
		return fmt.Errorf("invalid run: %d of %d commits failed or were shed: p95 misses every limit", failed, len(commit))
	}

	ev := float64(events)
	h.m.set("wall_s", res.region.wallS)
	h.m.set("events_per_s", ev/res.region.wallS)
	h.m.set("alloc_bytes_per_op", res.region.allocBytes/ev)
	h.m.set("billed_ops_per_kop", res.usage.billed/ev*1000)
	h.m.set("usd_per_kop", res.usage.usd/ev*1000)
	h.m.set("commit_p50_ms", commit.pct(50))
	h.m.set("commit_p95_ms", commit.pct(95))
	if s.liveDurable {
		h.m.set("durable_p50_ms", durable.pct(50))
		h.m.set("durable_p95_ms", durable.pct(95))
	}
	h.note("live_durable_ms", map[string]float64{"p50": durable.pct(50), "p95": durable.pct(95)})
	if s.reshardTo > 0 {
		h.m.set("core.reshard.window_s", res.reshardWindow.Seconds())
		h.note("reshard", map[string]any{
			"at_sim_s": res.reshardFrom.Seconds(), "window_sim_s": res.reshardWindow.Seconds(),
			"items_at_start": res.itemsAtReshard, "copied": res.reshard.CopiedItems, "gc": res.reshard.GCItems,
			"billed_ops_at_least": res.reshardBilled,
		})
	}
	h.note("latency_samples", map[string]int{"commit": len(commit), "durable": len(durable), "query": len(qlat)})
	h.m.set("live_heap_mb", liveHeapMB(f, res))

	// Per-layer readings that are cheap enough to take on every run.
	h.goLayer(res.region, res.region.mallocs/ev)
	h.m.set("core.commit_ack_ms_p50", ackOnly.pct(50))
	h.m.set("core.commit_p99_ms", commit.pct(99))
	h.m.set("core.ack_to_durable_ms_p50", ackToDurable.pct(50))
	h.m.set("core.ack_to_durable_ms_p95", ackToDurable.pct(95))
	h.m.set("frontdoor.commit_ms_p99", ackOnly.pct(99))
	h.m.set("sqs.backlog_mean", midMean)
	h.m.set("sqs.backlog_max", res.backlog.max())
	h.m.set("sqs.gate_depth_mean", res.gateSQS.mean())
	h.m.set("sqs.gate_depth_max", res.gateSQS.max())
	h.m.set("sdb.gate_depth_mean", res.gateSDB.mean())
	h.m.set("sdb.gate_depth_max", res.gateSDB.max())
	h.m.set("store.gate_depth_mean", res.gateS3.mean())
	h.m.set("store.gate_depth_max", res.gateS3.max())
	h.m.set("sim.gen_late_p99_ms", lateP99)
	h.m.set("sim.sleep_overshoot_pct", res.overshootPct.median())
	h.m.set("query.live_ms_p50", qlat.pct(50))
	h.m.set("query.live_ms_p95", qlat.pct(95))
	h.m.set("translog.checkpoint_ms", res.ckptMs.median())
	h.m.set("autoscale.step_us", res.stepUS.median())
	if f.ctl != nil {
		st := f.ctl.Status()
		h.m.set("autoscale.samples", float64(st.Samples))
		h.m.set("autoscale.holds", float64(st.Holds))
		if st.Grows != 0 || st.Shrinks != 0 {
			return fmt.Errorf("invalid run: the sampling-only controller decided (%d grows, %d shrinks)", st.Grows, st.Shrinks)
		}
	}
	if s.reshardTo > 0 {
		h.setReshardLayer(res.reshard, res.reshardBilled)
		h.m.set("core.reshard.copy_amplification", ratio(float64(res.reshard.CopiedItems), float64(res.itemsAtReshard)))
		rc, rd, _, _, _ := res.liveLatencies(res.reshardFrom, res.reshardFrom+res.reshardWindow)
		h.m.set("core.reshard.commit_p95_ms", rc.pct(95))
		h.m.set("core.reshard.durable_p50_ms", rd.pct(50))
	}
	nT := float64(len(commit))
	h.layerCounts(res.usage, nT, ev)
	h.resilience(f)
	h.m.set("core.notices", float64(res.usage.u1.CommitNotices-res.usage.u0.CommitNotices))

	// Epilogue on the manual clock. The sample of expected items is drawn
	// from the run's own transactions; readback roots are its files.
	pick := newRNG(h.cfg.seed, "live/sample")
	var sampleBundles []prov.Bundle
	var roots []prov.Ref
	for i := 0; i < 64; i++ {
		t := in.txns[pick.Intn(len(in.txns))]
		sampleBundles = append(sampleBundles, t.bundles[pick.Intn(len(t.bundles))])
	}
	for i := 0; len(roots) < 64 && i < len(in.txns); i++ {
		// One shape for every readback root: a new file and its process.
		if t := in.txns[i]; len(t.bundles) == 2 && t.bundles[1].Ref.Version == 1 && len(in.writers[t.bundles[1].Ref.UUID]) == 1 {
			roots = append(roots, t.bundles[1].Ref)
		}
	}
	attrs, err := core.ItemsForBundles(f.dep.Store, sampleBundles) // what the sampled bundles must be stored as
	if err != nil {
		return err
	}
	if f.engine != nil {
		if err := res.replayQueries(h); err != nil {
			return err
		}
	}
	if err := h.epilogue(f, expectation{items: in.items, attrs: attrs}, roots); err != nil {
		return err
	}

	if h.cfg.trace {
		c := h.runProbes(probeInput{seed: h.cfg.seed, k: s.fab.k, txns: in.txns})
		h.walShape(c, res.usage, nT)
		h.m.set("query.selects_per_query", ratio(float64(res.usage.ops["sdb.Select"]), float64(qdone)))
		h.finishTrace(res.region.cpuS)
	}
	return nil
}
