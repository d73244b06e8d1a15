// Package core implements the paper's primary contribution: the three
// protocols for storing data together with its provenance on cloud services,
// plus the non-provenance S3fs baseline they are compared against.
//
//   - P1 (Standalone Cloud Store) keeps both data and provenance in the
//     object store: each file maps to a primary object and a separate,
//     uuid-named provenance object; the primary object's metadata links the
//     two with (uuid, version).
//   - P2 (Cloud Store with a Cloud Database) keeps data in the object store
//     and provenance in the database service, one item per object version,
//     spilling values larger than the database's 1 KB limit to store
//     objects.
//   - P3 (Cloud Store, Database and Messaging Service) adds a queue used as
//     a write-ahead log: the client logs the transaction (data pointer +
//     provenance chunks) to the queue; an asynchronous commit daemon pushes
//     provenance to the database and copies the data from a temporary store
//     object into place, giving eventual provenance data-coupling.
//
// The package also provides the coupling/ordering detection of §3
// (detect.go), the Table-1 property probes (properties.go), and the commit
// and cleaner daemons of P3 (p3.go).
//
// P3's commit path is batched and pipelined: WAL chunks ship through SQS
// SendMessageBatch, receipts are acknowledged with DeleteMessageBatch, and
// a pool of Options.CommitWorkers commit daemons assembles transactions in
// sharded state and group-commits them, coalescing provenance items across
// transactions into full 25-item BatchPutAttributes calls. The knobs are
// Options.CommitWorkers (pool size, default 1), Options.ProvConns and
// Options.DataConns (per-commit connection fan-out). The seed's
// entry-by-entry serial path is gone; its last measurements are the first
// line of BENCH_history.jsonl and the ceilings in
// internal/bench/commitpipe_test.go. internal/fabric wires P3 to the layers
// around it and owns its daemons' lifecycle.
//
// The fabric itself shards: Topology sizes K-way WAL queue and provenance
// domain sets (NewShardedDeployment), transactions hash to their home WAL
// shard by txn uuid and items to their home domain by object uuid, commit
// daemons subscribe to deterministic shard subsets, and the read layer
// routes single-object lookups to one shard while scatter-gathering
// multi-shard SELECTs with a canonical name-order merge. The zero Topology
// is the seed's single-queue/single-domain layout (the K=1 ablation).
//
// Topology is no longer fixed at creation: placement rides epoch-versioned
// range directories (sim.Directory), and Reshard (reshard.go) grows or
// shrinks a live fabric — double-write window, consistent copy streams,
// atomic cutover, then GC of the drained ranges — without stopping ingest
// and without changing a single query result. The migration is crash-safe
// at every phase boundary (ResumeReshard rolls it forward from the
// persisted ctl/fabric control object) and pinned by the resharder rows of
// TestCrashRecovery in internal/fabric.
package core

import (
	"fmt"
	"strconv"
	"sync"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/cloud/sqs"
	"passcloud/internal/cloud/store"
	"passcloud/internal/prov"
	"passcloud/internal/resilient"
	"passcloud/internal/sim"
)

// Object key prefixes within the bucket.
const (
	DataPrefix  = "data/" // primary objects (one per file)
	ProvPrefix  = "prov/" // P1 provenance objects (named by uuid)
	TmpPrefix   = "tmp/"  // P3 temporary data objects (named by txn id)
	SpillPrefix = "pval/" // P2/P3 provenance values larger than 1 KB
)

// Metadata keys on primary objects linking data to provenance (§4.3.1: "In
// the primary S3 object's metadata, we record a version number and the
// uuid").
const (
	MetaUUID    = "prov-uuid"
	MetaVersion = "prov-version"
)

// SpillMarker prefixes attribute values that point at a spilled store
// object instead of holding the value inline.
const SpillMarker = "@s3:"

// FileObject describes one file to commit: its mount path, logical size and
// the provenance ref of its current version. Digest, when set, is the hex
// Merkle root of the file's full provenance closure at commit time; readers
// use it to verify multi-object causal ordering (see merkleverify.go).
type FileObject struct {
	Path   string
	Size   int64
	Ref    prov.Ref
	Digest string
}

// DataKey returns the primary object key for a mount path.
func DataKey(path string) string { return DataPrefix + path }

// Protocol is the contract all three protocols and the baseline satisfy.
// Commit persists the object's data and the supplied provenance bundles
// (the object's unrecorded versions plus their unrecorded ancestor closure,
// ancestors first, as assembled by the PASS collector).
type Protocol interface {
	// Name is the label used in the evaluation ("S3fs", "P1", "P2", "P3").
	Name() string
	// Commit stores obj and its provenance according to the protocol.
	Commit(obj FileObject, bundles []prov.Bundle) error
	// Delete removes the primary object; provenance must survive
	// (data-independent persistence).
	Delete(path string) error
	// Fetch retrieves the primary object (read-through on cache miss).
	Fetch(path string) (store.Object, error)
	// Settle forces any asynchronous work (P3's commit daemon) to finish;
	// the other protocols return immediately.
	Settle() error
}

// Topology sizes the sharded cloud fabric a deployment talks to: K WAL
// queues (transactions routed by txn uuid) and K SimpleDB domains (items
// routed by object uuid). The zero value is the seed topology — one queue,
// one domain — kept reachable as the K=1 ablation path.
type Topology struct {
	// WALShards is the number of WAL queues P3 logs through. Values below 1
	// are clamped to 1; values above MaxShards are clamped to MaxShards.
	WALShards int
	// DBShards is the number of provenance domains items spread across,
	// clamped the same way.
	DBShards int
}

// MaxShards caps the shard count of either axis; beyond this the fabric's
// per-request base latencies dominate and more shards stop paying.
const MaxShards = 64

// normalized clamps both shard counts into [1, MaxShards].
func (t Topology) normalized() Topology {
	clamp := func(k int) int {
		if k < 1 {
			return 1
		}
		if k > MaxShards {
			return MaxShards
		}
		return k
	}
	t.WALShards = clamp(t.WALShards)
	t.DBShards = clamp(t.DBShards)
	return t
}

// Deployment bundles the service endpoints one client talks to. DB and WAL
// are shard sets; with the default topology each holds a single endpoint
// named exactly as the seed deployment named it. Topo is the active
// topology; a live Reshard (reshard.go) updates it at cutover.
type Deployment struct {
	Env   *sim.Env
	Store *store.Store
	DB    *sdb.DomainSet
	WAL   *sqs.QueueSet
	Topo  Topology

	// Res is the client-side resilience layer (backoff, retry budgets,
	// breaker, hedging) installed on Env, which every service endpoint routes
	// through; installed by default and inert until a fault plan is armed on
	// the environment. See SetResilience and package resilient.
	Res *resilient.Client

	// Commits fans committed-transaction notices out to subscribed query
	// caches (see notify.go); the P2 and P3 commit paths publish to it after
	// every successful provenance write.
	Commits *CommitBus

	// Resharder state (reshard.go): reshardRunMu serializes whole Reshard
	// runs (TryLock — a racing second resharder gets ErrReshardInFlight,
	// never a directory panic); reshardMu guards the cutover-to-GC pending
	// flag ResumeReshard picks up after a crash.
	reshardRunMu sync.Mutex
	reshardMu    sync.Mutex
	gcPending    bool
}

// DomainName is the logical SimpleDB domain holding provenance items;
// sharded deployments derive the per-shard service domains ("prov-0", ...)
// from it.
const DomainName = "prov"

// WALName is the logical WAL queue name; sharded deployments derive the
// per-shard service queues ("wal-0", ...) from it.
const WALName = "wal"

// NewDeployment creates a fresh set of service endpoints on env with the
// seed topology (one WAL queue, one provenance domain).
func NewDeployment(env *sim.Env) *Deployment {
	return NewShardedDeployment(env, Topology{})
}

// NewShardedDeployment creates service endpoints on env with K-way WAL and
// domain shard sets. Invalid shard counts are clamped, so any Topology
// yields a working fabric.
func NewShardedDeployment(env *sim.Env, topo Topology) *Deployment {
	topo = topo.normalized()
	d := &Deployment{
		Env:     env,
		Store:   store.New(env),
		DB:      sdb.NewSet(env, DomainName, topo.DBShards),
		WAL:     sqs.NewSet(env, WALName, topo.WALShards),
		Topo:    topo,
		Commits: NewCommitBus(env.Meter()),
	}
	// A production client always talks through its SDK's retry layer; the
	// default client costs nothing until the environment injects faults.
	d.SetResilience(resilient.New(env, resilient.Policy{}))
	return d
}

// SetResilience installs c as the retry layer of the deployment's
// environment, which every service endpoint on it — present and future —
// routes its requests through (nil removes it: the chaos harness's negative
// control, where injected faults surface raw).
func (d *Deployment) SetResilience(c *resilient.Client) {
	d.Res = c
	if c == nil {
		d.Env.SetRetry(nil) // not c: a nil *Client in the interface would be called
		return
	}
	d.Env.SetRetry(c)
}

// Settle advances a manual clock far enough that every staleness window has
// passed; tests use it between writes and assertions. It is a no-op in live
// mode.
func (d *Deployment) Settle() {
	d.Env.Clock().Advance(sim.DefaultStalenessMean * 20)
}

// Options tunes a protocol's client behaviour.
type Options struct {
	// DataConns is the number of concurrent connections used for data
	// uploads (the S3fs default matches the FUSE writeback pool).
	DataConns int
	// ProvConns is the number of concurrent connections used for
	// provenance uploads (§5.1 tunes these per service).
	ProvConns int
	// Ordered makes commits write ancestors strictly before descendants
	// and provenance strictly before data, as the protocol definitions
	// require. The paper's measured implementation uploads everything in
	// parallel instead ("this violates multi-object causal ordering for
	// P1 and P2"); Ordered false reproduces that.
	Ordered bool
	// CommitWorkers is the size of P3's commit-daemon pool: the number of
	// daemons that concurrently drain the WAL, assemble transactions into
	// sharded state, and commit ready transactions as coalesced groups.
	// Every worker runs the same idempotent commit, so any N >= 1 preserves
	// the crash-recovery and redelivery semantics. Zero means one worker
	// (the seed's serial daemon). The other protocols ignore it.
	CommitWorkers int
}

// maxCommitWorkers caps the commit-daemon pool; beyond this workers only
// contend on the WAL shards without adding throughput.
const maxCommitWorkers = 256

// withDefaults fills zero fields and clamps out-of-range values: negative or
// zero connection and worker counts fall back to their defaults, and worker
// counts beyond maxCommitWorkers are capped, so any Options value yields a
// working client.
func (o Options) withDefaults(provConns int) Options {
	if o.DataConns <= 0 {
		o.DataConns = 16
	}
	if o.ProvConns <= 0 {
		o.ProvConns = provConns
	}
	if o.CommitWorkers <= 0 {
		o.CommitWorkers = 1
	}
	if o.CommitWorkers > maxCommitWorkers {
		o.CommitWorkers = maxCommitWorkers
	}
	return o
}

// dataMeta builds the primary object metadata linking data to provenance.
func dataMeta(obj FileObject) store.Metadata {
	m := store.Metadata{
		MetaUUID:    obj.Ref.UUID.String(),
		MetaVersion: strconv.Itoa(obj.Ref.Version),
	}
	if obj.Digest != "" {
		m[MetaMerkle] = obj.Digest
	}
	return m
}

// linkedRef parses the (uuid, version) link out of primary-object metadata.
func linkedRef(meta store.Metadata) (prov.Ref, error) {
	if meta[MetaUUID] == "" {
		return prov.Ref{}, fmt.Errorf("core: object has no provenance link")
	}
	return prov.ParseRef(meta[MetaUUID] + "_" + meta[MetaVersion])
}
