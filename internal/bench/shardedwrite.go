package bench

import (
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
	Events        int
	SQSRequests   int64
	SDBBatchCalls int64
	CostUSD       float64
	ProvDigest    string

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

	if _, err := commitPhase(f, clientConns, set); err != nil {
		return ShardedWriteRun{}, err
	}
	// The digest must not depend on K, and the fabric must end clean.
	out, err := finish(f, set)
	if err != nil {
		return ShardedWriteRun{}, err
	}
	return ShardedWriteRun{
		Events:        txns * bundlesPerTxn,
		SQSRequests:   out.usage.Requests[sim.CostSQS], // every queue request kind
		SDBBatchCalls: out.usage.OpsByKind["sdb.BatchPutAttributes"],
		CostUSD:       out.usage.Cost(f.Env.Config().StorageWindow),
		ProvDigest:    out.digest,
		usage:         out.usage,
	}, cleanEnd(f)
}
