package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/fabric"
	"passcloud/internal/par"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// The scenario rig: what every fabric harness in this package does around
// the thing it measures. The stack and its lifecycle come from
// internal/fabric; a harness is a fabric.Config, a commit schedule and the
// numbers it reads.

// pipeTxn is one synthetic transaction: a process plus a chain of file
// versions it derives.
type pipeTxn struct {
	obj     core.FileObject
	bundles []prov.Bundle
	proc    uuid.UUID
	file    uuid.UUID
}

// pipeTxns builds a transaction set whose uuids come from mint(rnd), whose
// paths and program name carry tag, and whose bundles each carry pad. The
// same arguments always yield the same set: twins commit the very same
// bundles, so their recorded provenance must match byte for byte.
func pipeTxns(rnd *sim.Rand, mint func(*sim.Rand) uuid.UUID, tag, pad string, txns, bundlesPerTxn int) []pipeTxn {
	out := make([]pipeTxn, 0, txns)
	for t := 0; t < txns; t++ {
		procRef := prov.Ref{UUID: mint(rnd), Version: 1}
		fileUUID := mint(rnd)
		path := fmt.Sprintf("mnt/%s/%06d", tag, t)
		bundles := make([]prov.Bundle, 0, bundlesPerTxn)
		bundles = append(bundles, prov.Bundle{
			Ref: procRef, Type: prov.Process, Name: tag + "prog",
			Records: []prov.Record{
				{Attr: prov.AttrType, Value: "proc"},
				{Attr: prov.AttrName, Value: tag + "prog"},
				{Attr: prov.AttrEnv, Value: pad},
			},
		})
		var last prov.Ref
		for v := 1; v < bundlesPerTxn; v++ {
			ref := prov.Ref{UUID: fileUUID, Version: v}
			records := []prov.Record{
				{Attr: prov.AttrType, Value: "file"},
				{Attr: prov.AttrName, Value: path},
				{Attr: prov.AttrInput, Xref: procRef},
				{Attr: prov.AttrEnv, Value: pad},
			}
			if v > 1 {
				records = append(records, prov.Record{Attr: prov.AttrPrevVer, Xref: last})
			}
			bundles = append(bundles, prov.Bundle{Ref: ref, Type: prov.File, Name: path, Records: records})
			last = ref
		}
		out = append(out, pipeTxn{
			obj:     core.FileObject{Path: path, Size: 4096, Ref: last},
			bundles: bundles,
			proc:    procRef.UUID,
			file:    fileUUID,
		})
	}
	return out
}

// commitPipeTxns is the pinned commit workload: ≈1 KB bundles (padded
// without spilling), so a 64-bundle transaction spans several WAL chunks.
func commitPipeTxns(seed int64, txns, bundlesPerTxn int) []pipeTxn {
	mint := func(r *sim.Rand) uuid.UUID { return uuid.New(r) }
	return pipeTxns(sim.NewRand(seed), mint, "pipe", strings.Repeat("p", 900), txns, bundlesPerTxn)
}

// liveFabric builds cfg's stack on a clock running live at scale, with
// strict consistency so the timing under test is not mixed with staleness
// retries. It collects garbage first, keeping the set-up's allocator debt out
// of the scaled-time measurement that follows.
func liveFabric(seed int64, scale, dupProb float64, cfg fabric.Config) (*fabric.Fabric, error) {
	runtime.GC()
	cfg.Sim = sim.DefaultConfig()
	cfg.Sim.Seed = seed
	cfg.Sim.TimeScale = scale
	cfg.Sim.Consistency = sim.Strict
	cfg.Sim.DupProb = dupProb
	return fabric.New(cfg)
}

// kWay is the square topology of k WAL shards and k domains.
func kWay(k int) core.Topology { return core.Topology{WALShards: k, DBShards: k} }

// commitPhase commits batch straight into P3 through at most conns
// concurrent client connections. It returns every commit's simulated
// latency in batch order, how many commits failed, and the first error.
func commitPhase(f *fabric.Fabric, conns int, batch []pipeTxn) (lat []time.Duration, failed int, first error) {
	lat = make([]time.Duration, len(batch))
	var nerr atomic.Int64
	first = par.ForEach(conns, len(batch), func(i int) error {
		t0 := f.Env.Now()
		err := f.P3.Commit(batch[i].obj, batch[i].bundles)
		lat[i] = f.Env.Now() - t0
		if err != nil {
			nerr.Add(1)
		}
		return err
	})
	return lat, int(nerr.Load()), first
}

// reshardDuring runs phase while the fabric reshards to toK-way underneath
// it (a toK equal to the current width runs phase alone). The reshard is
// always joined before it returns; phase's error wins.
func reshardDuring(f *fabric.Fabric, toK int, phase func() error) (core.ReshardStats, error) {
	if toK == f.Dep.DB.Shards() {
		return core.ReshardStats{}, phase()
	}
	type result struct {
		stats core.ReshardStats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		stats, err := f.Dep.Reshard(context.Background(), kWay(toK))
		done <- result{stats, err}
	}()
	err := phase()
	res := <-done
	if err == nil && res.err != nil {
		err = fmt.Errorf("bench: reshard to K=%d: %w", toK, res.err)
	}
	return res.stats, err
}

// phase is one batch committed and run to a settled WAL.
type phase struct {
	lat     []time.Duration   // commitPhase's latencies
	stats   core.ReshardStats // of the reshard the batch raced, if any
	simSecs float64           // commits, reshard and settle
}

// runPhase commits batch — racing a reshard to toK-way when that is not the
// fabric's width already — and settles. A failed commit fails the phase.
func runPhase(f *fabric.Fabric, conns int, batch []pipeTxn, toK int) (phase, error) {
	var p phase
	t0 := f.Env.Now()
	var err error
	p.stats, err = reshardDuring(f, toK, func() error {
		var failed int
		var first error
		if p.lat, failed, first = commitPhase(f, conns, batch); first != nil {
			return fmt.Errorf("bench: %d of %d commits failed: %w", failed, len(batch), first)
		}
		return nil
	})
	if err == nil {
		err = f.P3.Settle()
	}
	p.simSecs = (f.Env.Now() - t0).Seconds()
	return p, err
}

// outcome is what a harness reads once its measured phases are over.
type outcome struct {
	simEnd   time.Duration // simulated time when the live run had settled
	wallSecs float64
	usage    sim.Usage // the bill at that moment
	costUSD  float64
	verification
}

// finish ends the live part of a run — stop the pools, then Settle, which is
// where the run's clocks stop and its bill is read — and then, outside the
// measurement, takes the fabric to the manual clock and verifies it.
func finish(f *fabric.Fabric, wall0 time.Time, set []pipeTxn) (outcome, error) {
	f.Stop()
	if err := f.P3.Settle(); err != nil {
		return outcome{}, err
	}
	out := outcome{simEnd: f.Env.Now(), wallSecs: time.Since(wall0).Seconds(), usage: f.Env.Meter().Usage()}
	out.costUSD = out.usage.Cost(f.Env.Config().StorageWindow)
	err := f.ToManual()
	if err == nil {
		out.verification, err = verify(f, set)
	}
	return out, err
}

// verification is the end state verify read back.
type verification struct {
	items      int // provenance items in the fabric
	misplaced  int // items not on their home shard
	duplicates int // items on more than one shard
	digest     string
}

// verify reads a drained fabric on the manual clock: the exact item count
// (nothing lost, nothing duplicated), the placement audit, and — when set is
// given — the digest of every transaction's provenance read back through the
// routed ReadProvenance plus its data object's version link. Equal digests
// across twins prove they persisted byte-identical provenance.
func verify(f *fabric.Fabric, set []pipeTxn) (verification, error) {
	v := verification{items: f.Dep.DB.ItemCount()}
	var err error
	if v.misplaced, v.duplicates, err = core.AuditFabric(f.Dep); err != nil {
		return v, fmt.Errorf("bench: fabric audit: %w", err)
	}
	if set == nil {
		return v, nil
	}
	h := sha256.New()
	for i := range set {
		for _, u := range []uuid.UUID{set[i].file, set[i].proc} {
			bundles, err := core.ReadProvenance(f.Dep, core.BackendSDB, u)
			if err != nil {
				return v, fmt.Errorf("bench: read-back of %s: %w", u, err)
			}
			h.Write(prov.EncodeBundles(bundles))
		}
		o, err := f.Dep.Store.Get(core.DataKey(set[i].obj.Path))
		if err != nil {
			return v, fmt.Errorf("bench: data of %s: %w", set[i].obj.Path, err)
		}
		h.Write([]byte(o.Metadata["prov-uuid"] + "/" + o.Metadata["prov-version"]))
	}
	v.digest = hex.EncodeToString(h.Sum(nil))
	return v, nil
}

// cleanEnd checks that a drained fabric left nothing behind on any shard: no
// WAL backlog, no temporary objects, no half-assembled transactions. Clients
// that abandon transactions mid-send (the tenant storm) leave assembly state
// behind that only ever held expired packets; abandoned skips that check.
func cleanEnd(f *fabric.Fabric, abandoned bool) error {
	if n := f.Dep.WAL.Len(); n != 0 {
		return fmt.Errorf("bench: %d WAL messages left after settle", n)
	}
	if keys, _, _ := f.Dep.Store.ListAll(core.TmpPrefix); len(keys) != 0 {
		return fmt.Errorf("bench: %d temp objects leaked", len(keys))
	}
	if n := f.P3.PendingTxns(); n != 0 && !abandoned {
		return fmt.Errorf("bench: %d transactions still pending", n)
	}
	return nil
}

// pctMs sorts lat and returns its median and 99th percentile in
// milliseconds.
func pctMs(lat []time.Duration) (p50, p99 float64) {
	if len(lat) == 0 {
		return 0, 0
	}
	slices.Sort(lat)
	ms := func(q int) float64 { return float64(lat[len(lat)*q/100].Microseconds()) / 1e3 }
	return ms(50), ms(99)
}

// sqsRequests sums every queue request kind, batch or not.
func sqsRequests(u sim.Usage) int64 {
	var n int64
	for _, kind := range []string{
		"sqs.SendMessage", "sqs.ReceiveMessage", "sqs.DeleteMessage",
		"sqs.SendMessageBatch", "sqs.DeleteMessageBatch",
	} {
		n += u.OpsByKind[kind]
	}
	return n
}
