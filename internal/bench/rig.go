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
	"passcloud/internal/oracle"
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
// strict consistency so no read is mixed with staleness retries. A harness
// runs its daemons, so the clock must be live: scale 0 would be the manual
// clock, on which an idle pool spins simulated time forward. It collects
// garbage first, keeping the set-up's allocator debt out of the scaled-time
// run that follows (the tenant gate reads latencies from it).
func liveFabric(seed int64, scale, dupProb float64, cfg fabric.Config) (*fabric.Fabric, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("bench: a live fabric needs a time scale > 0, got %v", scale)
	}
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
// concurrent client connections. It returns how many commits failed and the
// first error.
func commitPhase(f *fabric.Fabric, conns int, batch []pipeTxn) (failed int, first error) {
	var nerr atomic.Int64
	first = par.ForEach(conns, len(batch), func(i int) error {
		err := f.P3.Commit(batch[i].obj, batch[i].bundles)
		if err != nil {
			nerr.Add(1)
		}
		return err
	})
	return int(nerr.Load()), first
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

// runPhase commits batch — racing a reshard to toK-way when that is not the
// fabric's width already — and settles. A failed commit fails the phase. It
// returns the stats of the reshard the batch raced, if any.
func runPhase(f *fabric.Fabric, conns int, batch []pipeTxn, toK int) (core.ReshardStats, error) {
	stats, err := reshardDuring(f, toK, func() error {
		if failed, first := commitPhase(f, conns, batch); first != nil {
			return fmt.Errorf("bench: %d of %d commits failed: %w", failed, len(batch), first)
		}
		return nil
	})
	if err == nil {
		err = f.P3.Settle()
	}
	return stats, err
}

// finish ends the live part of a run — stop the pools, then Settle, which is
// where the run's bill is read — and then, outside the measurement, takes
// the fabric to the manual clock and verifies it against set: it returns
// the bill and verify's digest.
func finish(f *fabric.Fabric, set []pipeTxn) (sim.Usage, string, error) {
	f.Stop()
	if err := f.P3.Settle(); err != nil {
		return sim.Usage{}, "", err
	}
	usage := f.Env.Meter().Usage()
	if err := f.ToManual(); err != nil {
		return usage, "", err
	}
	digest, err := verify(f, set, nil)
	return usage, digest, err
}

// verify checks a drained fabric on the manual clock with oracle.Check —
// exactly the items of set and extra, their objects coupled, nothing left
// behind — and returns the digest of every transaction of set's provenance
// read back through the routed ReadProvenance plus its data object's version
// link. Equal digests across twins prove they persisted byte-identical
// provenance.
func verify(f *fabric.Fabric, set, extra []pipeTxn) (string, error) {
	want := oracle.Expect{Backend: core.BackendSDB, P3: f.P3}
	for _, tx := range slices.Concat(set, extra) {
		want.Items += len(tx.bundles)
		want.Objects = append(want.Objects, tx.obj)
	}
	if rep, err := oracle.Check(f.Dep, want); err != nil || !rep.Clean() {
		return "", fmt.Errorf("bench: oracle: %q (err %v)", rep.Violations, err)
	}
	h := sha256.New()
	for i := range set {
		for _, u := range []uuid.UUID{set[i].file, set[i].proc} {
			bundles, err := core.ReadProvenance(f.Dep, core.BackendSDB, u)
			if err != nil {
				return "", fmt.Errorf("bench: read-back of %s: %w", u, err)
			}
			h.Write(prov.EncodeBundles(bundles))
		}
		o, err := f.Dep.Store.Get(core.DataKey(set[i].obj.Path))
		if err != nil {
			return "", fmt.Errorf("bench: data of %s: %w", set[i].obj.Path, err)
		}
		h.Write([]byte(o.Metadata["prov-uuid"] + "/" + o.Metadata["prov-version"]))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// p99Ms sorts lat and returns its 99th percentile in milliseconds.
func p99Ms(lat []time.Duration) float64 {
	if len(lat) == 0 {
		return 0
	}
	slices.Sort(lat)
	return float64(lat[len(lat)*99/100].Microseconds()) / 1e3
}
