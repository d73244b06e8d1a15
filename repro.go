// Package passcloud is a from-scratch reproduction of "Provenance for the
// Cloud" (Muniswamy-Reddy, Macko, Seltzer; FAST 2010).
//
// The paper layers a Provenance-Aware Storage System (PASS) on top of cloud
// services and proposes three protocols for recording data together with its
// provenance:
//
//   - P1 stores both data and provenance in a cloud object store (S3).
//   - P2 stores data in the object store and provenance in a cloud database
//     (SimpleDB).
//   - P3 adds a cloud queue (SQS) used as a write-ahead log so that data and
//     provenance are eventually coupled.
//
// The implementation lives under internal/:
//
//   - internal/sim        simulation substrate (clock, latency, cost, faults)
//   - internal/cloud/...  simulated S3, SimpleDB and SQS services
//   - internal/prov       the provenance DAG model and wire format
//   - internal/trace      system-call traces driving collection
//   - internal/pass       the PASS collector (versioning, cycle avoidance)
//   - internal/pasfs      the PA-S3fs client layer
//   - internal/core       the three protocols, daemons and property checks
//   - internal/query      the Q1..Q4 query engine from the evaluation
//   - internal/workload   the nightly/Blast/challenge workload generators
//   - internal/bench      drivers that regenerate every table and figure
//
// The simulated SimpleDB matches the real service in indexing every
// attribute on write: SELECT predicates (equality, IN, prefix, range)
// resolve through per-attribute secondary indexes with a planner fallback
// to a streaming scan, and the query engine batches BFS traversals into IN
// predicates — so provenance queries cost time proportional to their
// results, not to the domain size. BenchmarkBigQueryIndexed measures the
// indexed-vs-scan gap on a 100k-item domain (knobs: item count, chain
// count, chain depth — see internal/bench.BigQuery) and records it in
// BENCH_indexed_select.json.
//
// The cloud fabric shards: core.Topology sizes K-way WAL queue and
// provenance domain sets (core.NewShardedDeployment), each shard a service
// partition with its own request-rate gate. Transactions hash to their home
// WAL shard by txn uuid, items to their home domain by object uuid, commit
// daemons subscribe to deterministic shard subsets, and reads route
// single-object lookups to one shard while scatter-gathering multi-shard
// SELECTs with a canonical name-order merge — so query results and
// ReadProvenance digests are byte-identical at any K. The zero Topology is
// the paper's single-queue/single-domain layout (the K=1 ablation);
// examples/sharded-fabric demos the knobs, and internal/bench's
// TestShardedWriteIdentical pins the same digest at K∈{1,2,4}.
//
// The root package only anchors repository-level benchmarks (bench_test.go);
// internal/fabric wires the layers into one stack and its package comment is
// the system map.
package passcloud

// Version identifies this reproduction build.
const Version = "1.0.0"
