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
// The implementation lives under internal/, lowest layer first; the package
// comment of internal/fabric is the system map of how they wire together:
//
//   - internal/sim         clock, latency model, cost meter, faults, randomness
//   - internal/cloud/...   simulated S3 (store), SimpleDB (sdb) and SQS (sqs)
//   - internal/resilient   retries, budgets, breakers and hedges
//   - internal/prov        the provenance DAG model and wire format
//   - internal/uuid        seeded uuids
//   - internal/trace       system-call traces driving collection
//   - internal/pass        the PASS collector (versioning, cycle avoidance)
//   - internal/pasfs       the PA-S3fs client layer
//   - internal/par         the bounded-parallel primitive
//   - internal/core        the three protocols, daemons, resharding, properties
//   - internal/merkle      hash trees for causal-order verification
//   - internal/translog    the transparency log over committed transactions
//   - internal/frontdoor   multi-tenant admission in front of P3
//   - internal/query       the Q1..Q4 query engine and its coherent cache
//   - internal/autoscale   the shard-count controller
//   - internal/fabric      the composition root of the P3 stack
//   - internal/search      provenance-enhanced search re-ranking (§2.2)
//   - internal/workload    the nightly/Blast/challenge workload generators
//   - internal/bench       the paper's experiments and the fabric harnesses
//   - internal/golden      golden-file checks for tests
//
// cmd/provctl is the interactive inspector of one replayed deployment, and
// cmd/provbench regenerates the paper's tables and figures through
// internal/bench.
//
// The simulated SimpleDB matches the real service in indexing every
// attribute on write: SELECT predicates (equality, IN, prefix, range)
// resolve through per-attribute secondary indexes with a planner fallback
// to a streaming scan, and the query engine batches BFS traversals into IN
// predicates — so provenance queries cost time proportional to their
// results, not to the domain size. sdb's TestIndexedMatchesScan and
// TestIndexReducesSimulatedSelectTime pin the indexes against the scan, and
// the benchmark module's query_mix workload runs the planner over a
// 100k-item store.
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
// examples/sharded-fabric reads one burst back byte-identical from a K=1,
// a faulted K=4 and an autoscaled fabric, and internal/bench's
// TestShardedWriteIdentical pins the same digest at K∈{1,2,4}.
//
// The root package only anchors the paper's benchmarks (bench_test.go): one
// per table and figure, and the §5.1 ablations.
package passcloud

// Version identifies this reproduction build.
const Version = "1.0.0"
