package bench

import (
	"time"

	"passcloud/internal/fabric"
)

// The live-reshard benchmark: run the pinned commit workload through P3
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
	run := ReshardRun{
		FromK: fromK, ToK: toK, Resharded: reshard,
		Txns: txns, BundlesPerTxn: bundlesPerTxn, Events: txns * bundlesPerTxn,
		Workers: workers,
	}
	if !reshard {
		toK = fromK
	}
	set := commitPipeTxns(seed, txns, bundlesPerTxn)
	f, err := liveFabric(seed, scale, 0, fabric.Config{Topology: kWay(fromK), Workers: workers})
	if err != nil {
		return run, err
	}
	defer f.Close()
	f.Start()

	// Three equal phases: warm-up on the starting topology, ingest while the
	// fabric reshards underneath it (the phase's clock stops once the reshard
	// has returned and the WAL settled), and the post-reshard regime the
	// speedup gate measures.
	wall0 := time.Now()
	third := len(set) / 3
	pre, err := runPhase(f, clientConns, set[:third], fromK)
	if err != nil {
		return run, err
	}
	during, err := runPhase(f, clientConns, set[third:2*third], toK)
	if err != nil {
		return run, err
	}
	post, err := runPhase(f, clientConns, set[2*third:], toK)
	if err != nil {
		return run, err
	}
	run.PreSimSecs, run.DuringSimSecs, run.PostSimSecs = pre.simSecs, during.simSecs, post.simSecs
	run.CopiedItems, run.CopyBatches = during.stats.CopiedItems, during.stats.CopyBatches
	run.GCItems, run.GCBatches = during.stats.GCItems, during.stats.GCBatches
	run.WALMigrated, run.Epoch = during.stats.WALMigrated, during.stats.Epoch

	// Nothing lost, nothing duplicated, every item on exactly its home
	// shard, and the digest a static deployment of the target size must
	// reproduce.
	out, err := finish(f, wall0, set)
	if err != nil {
		return run, err
	}
	run.WallSeconds, run.TotalOps, run.CostUSD = out.wallSecs, out.usage.TotalOps, out.costUSD
	run.ItemCount, run.Misplaced, run.Duplicates, run.ProvDigest = out.items, out.misplaced, out.duplicates, out.digest
	return run, cleanEnd(f, false)
}
