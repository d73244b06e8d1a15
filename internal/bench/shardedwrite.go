package bench

import (
	"time"

	"passcloud/internal/core"
	"passcloud/internal/fabric"
	"passcloud/internal/sim"
)

// The sharded-fabric harness: replay the commit workload through P3's
// batched log-and-commit path on a K-way sharded fabric (K WAL queues, K
// SimpleDB domains, each with its own request-rate gate) or on the K=1 seed
// topology, and record billed requests and dollar cost. Every configuration
// commits byte-identical provenance, verified by reading every object's
// bundles back through the (routed) ReadProvenance and hashing them: the
// digest must not depend on K.

// ShardedWriteRun is one configuration of the sharded-write harness.
type ShardedWriteRun struct {
	WALShards     int              `json:"wal_shards"`
	DBShards      int              `json:"db_shards"`
	Txns          int              `json:"txns"`
	BundlesPerTxn int              `json:"bundles_per_txn"`
	Events        int              `json:"events"`
	Workers       int              `json:"workers"`
	WallSeconds   float64          `json:"wall_seconds"`
	SQSRequests   int64            `json:"sqs_requests"`
	SDBBatchCalls int64            `json:"sdb_batch_calls"`
	TotalOps      int64            `json:"total_ops"` // billed requests, all services
	CostUSD       float64          `json:"cost_usd"`
	OpsByKind     map[string]int64 `json:"ops_by_kind"`
	ProvDigest    string           `json:"prov_digest"`

	usage sim.Usage // the bill when the run settled
}

// ShardedWrite runs one fabric configuration on a clock live at scale.
// workers sizes the commit-daemon pool, clientConns bounds concurrent client
// commits, and topo sizes the WAL/domain shard sets (the zero value is the
// K=1 seed topology).
func ShardedWrite(seed int64, txns, bundlesPerTxn, workers, clientConns int, scale float64, topo core.Topology) (ShardedWriteRun, error) {
	if clientConns <= 0 {
		clientConns = 64
	}
	set := commitPipeTxns(seed, txns, bundlesPerTxn)
	f, err := liveFabric(seed, scale, 0, fabric.Config{Topology: topo, Workers: workers})
	if err != nil {
		return ShardedWriteRun{}, err
	}
	defer f.Close()
	f.Start() // the pool drains its shard subscriptions while the clients log

	wall0 := time.Now()
	if _, err := commitPhase(f, clientConns, set); err != nil {
		return ShardedWriteRun{}, err
	}
	// The digest must not depend on K, and the fabric must end clean.
	out, err := finish(f, wall0, set)
	if err != nil {
		return ShardedWriteRun{}, err
	}
	return ShardedWriteRun{
		WALShards:     f.Dep.Topo.WALShards,
		DBShards:      f.Dep.Topo.DBShards,
		Txns:          txns,
		BundlesPerTxn: bundlesPerTxn,
		Events:        txns * bundlesPerTxn,
		Workers:       workers,
		WallSeconds:   out.wallSecs,
		SQSRequests:   sqsRequests(out.usage),
		SDBBatchCalls: out.usage.OpsByKind["sdb.BatchPutAttributes"],
		TotalOps:      out.usage.TotalOps,
		CostUSD:       out.costUSD,
		OpsByKind:     out.usage.OpsByKind,
		ProvDigest:    out.digest,
		usage:         out.usage,
	}, cleanEnd(f, false)
}
