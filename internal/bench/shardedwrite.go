package bench

import (
	"time"

	"passcloud/internal/core"
	"passcloud/internal/fabric"
)

// The sharded-fabric benchmark: replay the ≥50k-event commit workload
// through P3's batched log-and-commit path on a K-way sharded fabric (K WAL
// queues, K SimpleDB domains, each with its own request-rate gate) and on
// the K=1 seed topology, and compare simulated time, billed requests and
// dollar cost. Every configuration commits byte-identical provenance,
// verified by reading every object's bundles back through the (routed)
// ReadProvenance and hashing them: the digest must not depend on K.

// ShardedWriteScale is the live-mode time scale of the sharded-write
// benchmark. It is deliberately low: the sharded comparison hinges on
// per-endpoint gate queueing, so the modelled service latency — not the
// host's own compute time, which a 2000x compression magnifies into most of
// the measurement — must dominate the run. At 50x
// the measured sim times are within a few percent of a 25x run (scale
// convergence), i.e. the measurement is honest.
const ShardedWriteScale = 50

// ShardedWriteRun is one measured configuration of the sharded-write
// benchmark.
type ShardedWriteRun struct {
	WALShards     int              `json:"wal_shards"`
	DBShards      int              `json:"db_shards"`
	Txns          int              `json:"txns"`
	BundlesPerTxn int              `json:"bundles_per_txn"`
	Events        int              `json:"events"`
	Workers       int              `json:"workers"`
	SimSeconds    float64          `json:"sim_seconds"`
	WallSeconds   float64          `json:"wall_seconds"`
	SQSRequests   int64            `json:"sqs_requests"`
	SDBBatchCalls int64            `json:"sdb_batch_calls"`
	TotalOps      int64            `json:"total_ops"` // billed requests, all services
	CostUSD       float64          `json:"cost_usd"`
	OpsByKind     map[string]int64 `json:"ops_by_kind"`
	OpsByShard    map[string]int64 `json:"ops_by_shard"` // per endpoint: each queue, each domain, the bucket ("s3")
	ProvDigest    string           `json:"prov_digest"`
}

// ShardedWrite measures one fabric configuration. workers sizes the
// commit-daemon pool, clientConns bounds concurrent client commits, scale 0
// uses ShardedWriteScale, and topo sizes the WAL/domain shard sets (the zero
// value is the K=1 seed topology).
func ShardedWrite(seed int64, txns, bundlesPerTxn, workers, clientConns int, scale float64, topo core.Topology) (ShardedWriteRun, error) {
	if clientConns <= 0 {
		clientConns = 64
	}
	if scale == 0 {
		scale = ShardedWriteScale
	}
	set := commitPipeTxns(seed, txns, bundlesPerTxn)
	f, err := liveFabric(seed, scale, 0, fabric.Config{Topology: topo, Workers: workers})
	if err != nil {
		return ShardedWriteRun{}, err
	}
	defer f.Close()
	f.Start() // the pool drains its shard subscriptions while the clients log

	sim0, wall0 := f.Env.Now(), time.Now()
	if _, _, err := commitPhase(f, clientConns, set); err != nil {
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
		SimSeconds:    (out.simEnd - sim0).Seconds(),
		WallSeconds:   out.wallSecs,
		SQSRequests:   sqsRequests(out.usage),
		SDBBatchCalls: out.usage.OpsByKind["sdb.BatchPutAttributes"],
		TotalOps:      out.usage.TotalOps,
		CostUSD:       out.costUSD,
		OpsByKind:     out.usage.OpsByKind,
		OpsByShard:    out.usage.OpsByEndpoint,
		ProvDigest:    out.digest,
	}, cleanEnd(f, false)
}
