package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// The live-reshard benchmark: run the commit-pipeline workload through P3
// in three phases — warm-up on the starting topology, a middle batch
// committed *while* core.Reshard grows the fabric, and a post-reshard
// batch on the grown topology — and compare the post-phase simulated
// commit time against a control run that stays on the starting topology.
// The run fails outright if the migration loses or duplicates a single
// provenance item (exact item count + placement audit), and the digest of
// every object's read-back provenance must be byte-identical to a static
// deployment of the target size.

// ReshardBenchScale is the live-mode time scale: the same gate-dominated
// regime as the sharded-write benchmark, so modelled service latency — not
// host compute — dominates the phase timings.
const ReshardBenchScale = 50

// ReshardRun is one measured configuration of the reshard benchmark.
type ReshardRun struct {
	FromK         int     `json:"from_k"`
	ToK           int     `json:"to_k"`
	Resharded     bool    `json:"resharded"` // false = control run, topology fixed at FromK
	Txns          int     `json:"txns"`
	BundlesPerTxn int     `json:"bundles_per_txn"`
	Events        int     `json:"events"`
	Workers       int     `json:"workers"`
	PreSimSecs    float64 `json:"pre_sim_seconds"`    // phase A: warm-up batch
	DuringSimSecs float64 `json:"during_sim_seconds"` // phase B: batch racing the reshard
	PostSimSecs   float64 `json:"post_sim_seconds"`   // phase C: batch after cutover+GC
	WallSeconds   float64 `json:"wall_seconds"`
	CopiedItems   int     `json:"copied_items"`
	CopyBatches   int     `json:"copy_batches"`
	GCItems       int     `json:"gc_items"`
	GCBatches     int     `json:"gc_batches"`
	WALMigrated   int     `json:"wal_migrated"`
	Epoch         int     `json:"epoch"`
	ItemCount     int     `json:"item_count"`
	Misplaced     int     `json:"misplaced"`
	Duplicates    int     `json:"duplicates"`
	TotalOps      int64   `json:"total_ops"`
	CostUSD       float64 `json:"cost_usd"`
	ProvDigest    string  `json:"prov_digest"`
}

// ReshardUnderLoad measures one configuration. The transaction set splits
// into three equal phases; when reshard is true the fabric grows fromK→toK
// concurrently with phase B's commits. scale 0 uses ReshardBenchScale.
func ReshardUnderLoad(seed int64, txns, bundlesPerTxn, workers, clientConns int, scale float64, fromK, toK int, reshard bool) (ReshardRun, error) {
	if clientConns <= 0 {
		clientConns = 64
	}
	if scale == 0 {
		scale = ReshardBenchScale
	}
	set := commitPipeTxns(seed, txns, bundlesPerTxn)
	runtime.GC() // keep allocator debt out of the scaled-time measurement

	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	cfg.TimeScale = scale
	cfg.Consistency = sim.Strict // isolate commit timing from staleness retries
	env := sim.NewEnv(cfg)
	dep := core.NewShardedDeployment(env, core.Topology{WALShards: fromK, DBShards: fromK})
	p3 := core.NewP3(dep, core.Options{CommitWorkers: workers})

	// The daemon pool is always joined on the way out — error paths
	// included — so no run leaks goroutines spinning against its env.
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

	wall0 := time.Now()
	commitBatch := func(batch []pipeTxn) error {
		sem := make(chan struct{}, clientConns)
		errs := make(chan error, len(batch))
		for i := range batch {
			tx := &batch[i]
			sem <- struct{}{}
			go func() {
				defer func() { <-sem }()
				errs <- p3.Commit(tx.obj, tx.bundles)
			}()
		}
		var firstErr error
		for range batch {
			if err := <-errs; err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}

	third := len(set) / 3
	phaseA, phaseB, phaseC := set[:third], set[third:2*third], set[2*third:]
	run := ReshardRun{
		FromK: fromK, ToK: toK, Resharded: reshard,
		Txns: txns, BundlesPerTxn: bundlesPerTxn, Events: txns * bundlesPerTxn,
		Workers: workers,
	}

	// Phase A: warm-up on the starting topology.
	t0 := env.Now()
	if err := commitBatch(phaseA); err != nil {
		return run, err
	}
	if err := p3.Settle(); err != nil {
		return run, err
	}
	run.PreSimSecs = (env.Now() - t0).Seconds()

	// Phase B: ingest continues while the fabric resharded underneath it.
	// The reshard goroutine is always joined (stats travel over the
	// channel, never through shared writes) before any return below.
	t0 = env.Now()
	type reshardResult struct {
		stats core.ReshardStats
		err   error
	}
	resCh := make(chan reshardResult, 1)
	if reshard {
		go func() {
			stats, err := dep.Reshard(context.Background(), core.Topology{WALShards: toK, DBShards: toK})
			resCh <- reshardResult{stats: stats, err: err}
		}()
	} else {
		resCh <- reshardResult{}
	}
	batchErr := commitBatch(phaseB)
	res := <-resCh
	if batchErr != nil {
		return run, batchErr
	}
	if res.err != nil {
		return run, res.err
	}
	run.CopiedItems, run.CopyBatches = res.stats.CopiedItems, res.stats.CopyBatches
	run.GCItems, run.GCBatches = res.stats.GCItems, res.stats.GCBatches
	run.WALMigrated, run.Epoch = res.stats.WALMigrated, res.stats.Epoch
	if err := p3.Settle(); err != nil {
		return run, err
	}
	run.DuringSimSecs = (env.Now() - t0).Seconds()

	// Phase C: the post-reshard regime the speedup gate measures.
	t0 = env.Now()
	if err := commitBatch(phaseC); err != nil {
		return run, err
	}
	if err := p3.Settle(); err != nil {
		return run, err
	}
	run.PostSimSecs = (env.Now() - t0).Seconds()

	stop()
	if err := p3.Settle(); err != nil {
		return run, err
	}
	run.WallSeconds = time.Since(wall0).Seconds()

	usage := env.Meter().Usage()
	run.TotalOps = usage.TotalOps
	run.CostUSD = usage.Cost(cfg.StorageWindow)

	// Verification, outside the measurement on an instant clock: exact item
	// count (nothing lost, nothing duplicated), every item on exactly its
	// home shard, and the read-back digest.
	env.Clock().SetScale(0)
	run.ItemCount = dep.DB.ItemCount()
	mis, dup, err := core.AuditFabric(dep)
	if err != nil {
		return run, fmt.Errorf("bench: fabric audit: %w", err)
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

	// A clean fabric leaves nothing behind on any shard.
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
