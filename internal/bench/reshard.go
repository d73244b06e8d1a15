package bench

import (
	"time"

	"passcloud/internal/fabric"
)

// The live-reshard harness: run the pinned commit workload through P3 in
// three phases — warm-up on the starting topology, a middle batch committed
// *while* core.Reshard grows the fabric, and a post-reshard batch on the
// grown topology. The run fails outright if the migration loses or
// duplicates a single provenance item (exact item count + placement audit),
// and the digest of every object's read-back provenance must be
// byte-identical to a static deployment of the target size.

// ReshardRun is one configuration of the reshard harness.
type ReshardRun struct {
	FromK         int     `json:"from_k"`
	ToK           int     `json:"to_k"`
	Resharded     bool    `json:"resharded"` // false = control run, topology fixed at FromK
	Txns          int     `json:"txns"`
	BundlesPerTxn int     `json:"bundles_per_txn"`
	Events        int     `json:"events"`
	Workers       int     `json:"workers"`
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

// ReshardUnderLoad runs one configuration on a clock live at scale. The
// transaction set splits into three equal phases; when reshard is true the
// fabric grows fromK→toK concurrently with phase B's commits.
func ReshardUnderLoad(seed int64, txns, bundlesPerTxn, workers, clientConns int, scale float64, fromK, toK int, reshard bool) (ReshardRun, error) {
	if clientConns <= 0 {
		clientConns = 64
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
	// fabric reshards underneath it, and ingest on the grown topology.
	wall0 := time.Now()
	third := len(set) / 3
	if _, err := runPhase(f, clientConns, set[:third], fromK); err != nil {
		return run, err
	}
	during, err := runPhase(f, clientConns, set[third:2*third], toK)
	if err != nil {
		return run, err
	}
	if _, err := runPhase(f, clientConns, set[2*third:], toK); err != nil {
		return run, err
	}
	run.CopiedItems, run.CopyBatches = during.CopiedItems, during.CopyBatches
	run.GCItems, run.GCBatches = during.GCItems, during.GCBatches
	run.WALMigrated, run.Epoch = during.WALMigrated, during.Epoch

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
