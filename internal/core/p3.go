package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/cloud/sqs"
	"passcloud/internal/par"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// P3 is the store+database+queue protocol (§4.3.3). The queue is a
// write-ahead log; commits happen in two phases.
//
// Log phase (client, on close/flush):
//
//  1. store the data under a temporary name in the object store;
//  2. allocate a transaction uuid, encode the provenance (the object's new
//     versions plus all not-yet-written ancestors — including them in the
//     transaction is what preserves multi-object causal ordering even
//     though packets are sent in parallel), chunk it into ≤8 KB messages
//     and send them to the transaction's home WAL shard (the deployment's
//     queue set routes by txn uuid) with SendMessageBatch (≤10 chunks per
//     service request). The first message carries the packet count, the
//     temporary object pointer, the final key and the version. Each message
//     is encoded into a queue block sized to it (sqs.NewBody), which the
//     queue recycles once every delivery of it is acknowledged, so a daemon
//     reads a packet only until it deletes that delivery's receipt.
//
// Commit phase (commit-daemon pool, asynchronous):
//
//  3. each daemon polls its subscribed WAL shards (walSubscription assigns
//     every shard to at least one worker deterministically), assembling
//     packets by transaction into sharded state (any daemon can fold
//     packets of any transaction; the shard lock, not a global one, is the
//     only point of contention) and decoding each transaction once, when it
//     is complete; complete transactions commit as a group: spill >1 KB
//     values, coalesce the provenance items of every transaction in the
//     group into full 25-item BatchPutAttributes calls per home domain
//     (items route to domains by object uuid, so a cross-shard
//     transaction's items batch into their home domains), COPY each
//     temporary object to its permanent key (updating the version metadata
//     as part of the COPY), DELETE the temporary objects and batch-delete
//     the group's WAL receipts against the shards they were received from.
//     CommitOnce and Settle run a round's receive (assemble) and its group
//     commit (commit) back to back. The live pool, RunDaemon, pipelines
//     them: receivers never wait on a group, one group former closes groups
//     as whole transactions fill whole batches on their home domains, groups
//     commit concurrently, and receipts are acknowledged in full batches.
//
// A transaction whose packets never all arrive (client crash mid-log) is
// ignored; the queue's retention expires its messages and the cleaner
// daemon removes its temporary object. If a commit daemon crashes
// mid-commit, the messages reappear after the visibility timeout and any
// daemon — on any machine, including another worker of the same pool —
// re-runs the commit; every step is idempotent. A transaction becomes
// committed the moment its COPY is durable: receipt cleanup failures after
// that point are collected and reported, but redelivered packets of a
// committed transaction are simply acknowledged, never re-committed.
//
// Each receive asks for twice the longest hold, from a transaction's first
// packet to its commit, that P3 has seen, at least the WAL's visibility
// (sqs.QueueSet.Visibility) and at most SQS's 12 hours, so a held packet
// normally stays hidden until it is acknowledged. On a cold start, before
// any commit, or when a hold outgrows that grant, a packet can still be
// redelivered while its transaction is in flight; it then only adds its
// receipt to that commit's cleanup.
//
// Cleanup acknowledges each transaction's header packet last, so a cleanup
// cut short leaves the header on the WAL. The daemon that died there takes
// its record of the commit with it; whichever daemon receives what is left —
// a restarted one included — assembles a transaction that never completes,
// and once Settle has drained the WAL it finds the commit in place with one
// read and acknowledges the rest (absorbCommitted). A failed
// DeleteMessageBatch holds back its acknowledgement's header-bearing batches
// (deleteReceipts), redelivered packets of a committed transaction included.
// One case stays open: the live pool sends its full acknowledgement batches
// independently, so there a header can go while another batch of its
// transaction fails; if the daemon restarts first, that batch's packets
// wait for the queue's retention.
type P3 struct {
	client

	// shards hold per-transaction assembly and commit state; packets are
	// routed by transaction uuid so the worker pool contends on a shard,
	// never on the whole table.
	shards [txnShards]txnShard

	// cursor rotates CommitOnce's starting WAL shard so un-subscribed
	// callers (tests, single-daemon loops) still cover every shard fairly.
	cursor atomic.Uint64
	// hold is the longest a transaction P3 committed was held, from its
	// first packet's receive to its commit (nanoseconds).
	hold atomic.Int64
}

// txnShards is the number of assembly shards; a small power of two keeps
// routing cheap while letting a pool of daemons fold packets concurrently.
const txnShards = 16

// txnShard is one slice of the transaction-assembly table.
type txnShard struct {
	mu sync.Mutex
	// pending holds a transaction from its first packet until its last; a
	// crashed client's stays until RunCleaner forgets it with its packets.
	pending map[uuid.UUID]*txnState
	// inflight holds a transaction from the moment its last packet arrives
	// until its group commit marks it committed or gives up on it. A packet
	// redelivered meanwhile (see P3) only adds its receipt here instead of
	// assembling — and committing — the transaction a second time.
	inflight map[uuid.UUID]*txnState
	// committed remembers when each finished transaction committed, so its
	// redelivered packets are acknowledged without re-running the commit.
	// RunCleaner forgets a transaction once the WAL's retention has passed:
	// by then the queue has expired every packet that could redeliver it.
	committed map[uuid.UUID]time.Duration
}

// P3's crash points, in protocol order. The two counted ones take the work
// done before dying as CrashAt's n and fire only where there is more work
// than that: a client that logs n of a transaction's packets (the daemons
// must ignore it), a cleanup that acknowledges n of a committed
// transaction's receipts (the rest must be absorbed, not re-committed).
const (
	CrashClientAfterPackets   sim.CrashPoint = "p3.client.after-packets"
	CrashBeforeDB             sim.CrashPoint = "p3.daemon.before-db"  // before provenance reaches the database
	CrashAfterDB              sim.CrashPoint = "p3.daemon.after-db"   // provenance stored, data not yet copied
	CrashAfterCopy            sim.CrashPoint = "p3.daemon.after-copy" // data copied, temp + WAL not yet cleaned
	CrashCleanupAfterReceipts sim.CrashPoint = "p3.cleanup.after-receipts"
)

// txnState accumulates packets of one transaction. walShard is the WAL
// shard the packets arrived on — the transaction's home shard, where its
// receipts must be acknowledged. frags[seq] is packet seq's payload (never
// nil once in) and have counts the packets in. Once the last packet is in,
// the fragments are decoded once, into the transaction's put requests (or
// err), and let go; its values over the database's limit spill at commit.
// receipts holds the other packets' receipts and heads the header packet's
// (message headID), which cleanup acknowledges last. since is when the first
// packet arrived. A group commit pools the state once done with it.
type txnState struct {
	since    time.Duration
	header   *walTxn
	frags    [][]byte
	have     int
	receipts []string
	heads    []string
	headID   string
	walShard int
	reqs     []sdb.PutRequest
	attrs    []sdb.Attr
	err      error
	copied   bool // its commit's COPY is done
	ended    bool // endInflight has run
	// redelivered holds, by message id, every receipt of each message
	// delivered again while the transaction was in flight, in arrival order
	// (nil until then).
	redelivered map[string][]string
}

// shardReceipt is one WAL receipt paired with the shard it came from, so
// cleanup can batch acknowledgements per shard; head marks a transaction's
// header packet, which cleanup acknowledges last.
type shardReceipt struct {
	shard   int
	receipt string
	head    bool
}

// NewP3 returns a P3 client (and its daemons' logic) bound to dep.
func NewP3(dep *Deployment, opts Options) *P3 {
	p := &P3{client: client{dep, opts.withDefaults(150)}}
	for i := range p.shards {
		p.shards[i].pending = make(map[uuid.UUID]*txnState)
		p.shards[i].inflight = make(map[uuid.UUID]*txnState)
		p.shards[i].committed = make(map[uuid.UUID]time.Duration)
	}
	return p
}

// Name implements Protocol.
func (p *P3) Name() string { return "P3" }

// shardFor routes a transaction to its assembly shard.
func (p *P3) shardFor(txn uuid.UUID) *txnShard {
	return &p.shards[int(txn[0])%txnShards]
}

// Commit implements the log phase.
func (p *P3) Commit(obj FileObject, bundles []prov.Bundle) error {
	return p.commitTxn(uuid.New(p.dep.Env.Rand()), obj, bundles)
}

// CommitInBand is Commit with the transaction uuid minted inside band, so
// the transaction's WAL packets land on the band's home shard. The
// multi-tenant front door commits through this: with a tenant's object
// uuids minted in the same band (MintBandUUID), the tenant's items and WAL
// traffic co-shard and migrate together across reshards.
func (p *P3) CommitInBand(band sim.Band, obj FileObject, bundles []prov.Bundle) error {
	return p.commitTxn(MintBandUUID(p.dep.Env.Rand(), band), obj, bundles)
}

// loggedTxn is a transaction whose log phase has run up to, but not
// including, the WAL send. id is the transaction uuid rendered once: the
// temporary object key, the WAL routing key and every idempotency token are
// built from it.
type loggedTxn struct {
	id      string
	wal     *sqs.Queue
	release func() // drops the reshard write barrier on wal
	msgs    [][]byte
}

// walToken is the idempotency token of the send that starts at packet seq
// of transaction id: "txn-uuid/seq".
func walToken(id string, seq int) string { return id + "/" + strconv.Itoa(seq) }

// logTxn runs the log phase for an already-minted transaction uuid up to
// the WAL send, making its requests with ctx; the caller ships l.msgs to
// l.wal and then calls l.release.
func (p *P3) logTxn(ctx context.Context, txn uuid.UUID, obj FileObject, bundles []prov.Bundle) (loggedTxn, error) {
	l := loggedTxn{id: txn.String()}

	// 1. Data to a temporary object. Objects with no data (pure
	// provenance flushes) skip this step.
	tmpKey := ""
	if obj.Path != "" {
		tmpKey = TmpPrefix + l.id
		if err := p.dep.Store.PutSizedContext(ctx, tmpKey, obj.Size, nil); err != nil {
			return l, err
		}
	}

	// 2. Chunk the provenance into WAL messages (order does not matter:
	// the daemon reassembles by sequence number).
	hdr := walTxn{
		Txn:      txn,
		TmpKey:   tmpKey,
		FinalKey: DataKey(obj.Path),
		Size:     obj.Size,
		Ref:      obj.Ref,
		Digest:   obj.Digest,
	}
	l.msgs = encodeWALBundles(txn, hdr, bundles, p.opts.ChunkSize)
	if len(l.msgs) > maxWALPackets {
		return l, fmt.Errorf("core: txn %s needs %d WAL packets, over %d", l.id, len(l.msgs), maxWALPackets)
	}

	// Every packet of the transaction goes to its home WAL shard (resolved
	// once, under one routing view, so a reshard cannot split a
	// transaction's packets across queues), and any daemon polling that
	// shard can reassemble it without cross-shard scans. The release keeps
	// a shrinking reshard from retiring the queue mid-send.
	l.wal, l.release = p.dep.WAL.HomeQueue(l.id)
	return l, nil
}

// commitTxn is the log phase for an already-minted transaction uuid: the
// packets are sent batched, in parallel across batch calls.
func (p *P3) commitTxn(txn uuid.UUID, obj FileObject, bundles []prov.Bundle) error {
	l, err := p.logTxn(context.Background(), txn, obj, bundles)
	if err != nil {
		return err
	}
	defer l.release()
	if sent, hit := p.dep.Env.CrashedAfter(CrashClientAfterPackets, len(l.msgs)); hit {
		// Only the first sent packets reach the WAL.
		if err := p.sendWAL(l.wal, l.id, l.msgs[:sent]); err != nil {
			return err
		}
		return fmt.Errorf("%w: client at %s, %d of %d sent", sim.ErrCrashed, CrashClientAfterPackets, sent, len(l.msgs))
	}
	return p.sendWAL(l.wal, l.id, l.msgs)
}

// sendWAL ships the WAL messages of transaction id (the uuid's string form)
// to one queue shard in ≤10-entry SendMessageBatch calls, batches running
// in parallel on the provenance connection pool. Every send carries an
// idempotency token derived from the transaction uuid and the chunk
// sequence, so a send retried after an ambiguous fault (applied but reported
// failed) never enqueues a packet twice — the queue returns the original ids.
func (p *P3) sendWAL(wal *sqs.Queue, id string, msgs [][]byte) error {
	var tasks []func() error
	for start := 0; start < len(msgs); start += sqs.MaxBatchEntries {
		batch := msgs[start:min(start+sqs.MaxBatchEntries, len(msgs))]
		tasks = append(tasks, func() error {
			_, err := wal.SendMessageBatchIdem(batch, walToken(id, start))
			return err
		})
	}
	return par.Run(p.opts.ProvConns, tasks)
}

// PreparedTxn is a logged-but-unsent transaction: the temporary object is
// stored and the WAL packets are encoded as per-entry idempotent batch
// entries, but nothing has reached the queue. The front door's write
// combiner uses this to pack the packets of several small transactions into
// full SendMessageBatch calls; the per-entry tokens make a re-send (even
// inside a differently-composed batch) exactly-once. Release must be called
// once the entries are shipped (or abandoned): it drops the reshard write
// barrier that keeps a shrinking fabric from retiring the home queue
// mid-send.
type PreparedTxn struct {
	Txn     uuid.UUID
	Queue   *sqs.Queue
	Entries []sqs.BatchEntry

	release func()
}

// Release drops the transaction's reshard write barrier; it is idempotent.
func (t *PreparedTxn) Release() {
	if t.release != nil {
		t.release()
		t.release = nil
	}
}

// PrepareCommit runs the log phase up to, but not including, the WAL send:
// it mints the transaction uuid inside band, stores the temporary object
// with a request made with ctx, and returns the encoded WAL entries bound to
// the transaction's home queue. The caller ships the entries
// (sqs.Queue.SendMessageBatchEntries on Queue, possibly combined with other
// transactions' entries) and then Releases the prepared transaction. An
// abandoned prepared transaction is harmless: the cleaner removes its
// temporary object, exactly as for a crashed client.
func (p *P3) PrepareCommit(ctx context.Context, band sim.Band, obj FileObject, bundles []prov.Bundle) (*PreparedTxn, error) {
	txn := MintBandUUID(p.dep.Env.Rand(), band)
	l, err := p.logTxn(ctx, txn, obj, bundles)
	if err != nil {
		return nil, err
	}
	entries := make([]sqs.BatchEntry, len(l.msgs))
	for i, m := range l.msgs {
		entries[i] = sqs.BatchEntry{Body: m, Token: walToken(l.id, i)}
	}
	return &PreparedTxn{Txn: txn, Queue: l.wal, Entries: entries, release: l.release}, nil
}

// assemblyBudget caps how many ReceiveMessage calls one commit round may
// spend on a single WAL shard. The budget itself is adaptive: the round
// keeps receiving while the shard keeps returning full pages (deep backlog —
// pull enough to coalesce full 25-item database batches) and stops at the
// first short page (shallow backlog — commit immediately so idle shards stay
// low-latency).
const assemblyBudget = 24

// walSubscription returns the WAL shards daemon worker w of a pool of n
// polls: with at least as many workers as shards each worker owns one shard
// (extras double up), with fewer workers each covers every shard congruent
// to it mod n. Every shard is always covered by at least one worker, and
// the assignment is deterministic — the discovery story for daemons on any
// number of machines.
func (p *P3) walSubscription(w, n int) []int {
	k := p.dep.WAL.Shards()
	n = max(n, 1)
	if n >= k {
		return []int{w % k}
	}
	var subs []int
	for s := w % n; s < k; s += n {
		subs = append(subs, s)
	}
	return subs
}

// CommitOnce runs one round of a commit daemon across every WAL shard
// (rotating the starting shard call to call so no shard is starved): receive
// WAL messages up to the adaptive assembly budget per shard, fold them into
// the sharded transaction state, and group-commit every transaction that
// became complete. It reports whether it made progress. Any number of
// workers may run CommitOnce concurrently; pool daemons poll only their
// subscribed shards via commitShards.
func (p *P3) CommitOnce() (bool, error) {
	k := p.dep.WAL.Shards()
	start := int(p.cursor.Add(1)) % k
	shards := make([]int, k)
	for i := range shards {
		shards[i] = (start + i) % k
	}
	return p.commitShards(shards)
}

// recvConcurrency is how many ReceiveMessage calls one assembly wave issues
// concurrently against a shard (SQS serves concurrent receives; each call
// still pays its own request latency and gate admission). Waves keep the
// receive leg of the commit round off the critical path without losing the
// backlog-adaptive stop.
const recvConcurrency = 8

// commitShards is one commit round over an explicit shard subscription, as
// CommitOnce and Settle run it: assemble up to the adaptive budget per shard,
// then commit what that produced, back to back.
func (p *P3) commitShards(shards []int) (bool, error) {
	r := p.assemble(shards, assemblyBudget)
	if !r.progress {
		return false, nil
	}
	return true, p.commit(r.ready, r.acks)
}

// round is what one assembly pass over a shard subscription produced.
type round struct {
	ready    []*txnState    // transactions the pass completed, in flight until committed
	acks     []shardReceipt // redelivered packets of committed transactions
	progress bool           // some page held more than redeliveries of in-flight transactions
	short    bool           // every shard's last page came back short: the backlog is drained
}

// pageSets are the receive waves' pages, a set per assembly pass at a time.
var pageSets = sync.Pool{New: func() any { return new([recvConcurrency][]sqs.Message) }}

// assemble is the receive-and-fold half of a commit round: per subscribed
// shard, a single probing receive, then — while pages come back full —
// concurrent waves, up to budget receives in all.
func (p *P3) assemble(shards []int, budget int) round {
	r := round{short: true}
	pages := pageSets.Get().(*[recvConcurrency][]sqs.Message)
	defer pageSets.Put(pages) // its stale views are never read
	// The grant (see P3); the queue caps it at sqs.MaxVisibility.
	grant := max(2*time.Duration(p.hold.Load()), p.dep.WAL.Visibility())
	for _, si := range shards {
		wal := p.dep.WAL.Shard(si)
		if wal == nil {
			continue // shard retired by a shrink since the subscription was computed
		}
		drained := false
		for n := 0; n < budget && !drained; {
			wave := recvConcurrency
			if n == 0 {
				// Probe with a single receive: an idle shard costs one
				// request per poll, and only a full first page escalates
				// to concurrent waves.
				wave = 1
			}
			wave = min(wave, budget-n)
			n += wave
			par.ForEach(wave, wave, func(w int) error {
				pages[w] = wal.Receive(pages[w][:0], 10, grant)
				return nil
			})
			for _, msgs := range pages[:wave] {
				if len(msgs) < 10 {
					// Short page: the shard's backlog is shallow; stop
					// pulling after this wave and commit what we have to
					// keep latency low.
					drained = true
				}
				if len(msgs) == 0 {
					continue
				}
				rdy, a, held := p.foldMessages(si, msgs)
				if held == len(msgs) {
					// Nothing but redeliveries of transactions a running
					// group commit already owns. They are hidden again, so
					// the next page reaches whatever lies behind them, but
					// a round that found only these made no progress: a
					// daemon then sleeps its poll interval, not spins.
					continue
				}
				r.progress = true
				r.ready = append(r.ready, rdy...)
				r.acks = append(r.acks, a...)
			}
		}
		r.short = r.short && drained
	}
	return r
}

// commit is the other half of a commit round: acknowledge the redelivered
// packets of committed transactions, group-commit the ready transactions
// and acknowledge theirs.
func (p *P3) commit(ready []*txnState, acks []shardReceipt) error {
	var errs []error
	if err := p.deleteReceiptPairs(acks); err != nil {
		errs = append(errs, err)
	}
	if len(ready) > 0 {
		receipts, err := p.commitGroup(ready)
		if err != nil {
			errs = append(errs, err)
		}
		if err := p.deleteReceiptPairs(receipts); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// foldMessages routes packets received from WAL shard walShard into their
// transactions' assembly shards and returns the transactions completed by
// this batch — decoded, and in flight from here until endInflight — plus the
// receipts of redelivered packets belonging to already-committed
// transactions (which only need acknowledging, on the same WAL shard they
// arrived from), and how many of the messages were redeliveries held for a
// transaction already in flight. The assembled payload fragments alias the
// message bodies, which are read-only views of what the queue stores. A
// packet numbered past its transaction's count is dropped.
func (p *P3) foldMessages(walShard int, msgs []sqs.Message) (ready []*txnState, acks []shardReceipt, held int) {
	for _, m := range msgs {
		pkt, err := decodeWAL(m.Body)
		if err != nil {
			// An undecodable packet is dropped; retention will expire it.
			continue
		}
		sh := p.shardFor(pkt.Txn)
		sh.mu.Lock()
		if _, done := sh.committed[pkt.Txn]; done {
			// Redelivery of an already-committed transaction: just ack.
			sh.mu.Unlock()
			acks = append(acks, shardReceipt{shard: walShard, receipt: m.ReceiptHandle, head: pkt.First})
			continue
		}
		if st := sh.inflight[pkt.Txn]; st != nil {
			// Redelivery while the transaction's own group commit is still
			// running: only the receipt is new, and it is acknowledged with
			// the rest when that commit finishes. Every one is kept, since
			// the queue recycles a body only once each of its deliveries is
			// acknowledged; none is deleted early, since a delete marks the
			// message deleted and a commit that then failed could never
			// reassemble the transaction.
			if st.redelivered == nil {
				st.redelivered = make(map[string][]string)
			}
			st.redelivered[m.ID] = append(st.redelivered[m.ID], m.ReceiptHandle)
			sh.mu.Unlock()
			held++
			continue
		}
		st := sh.pending[pkt.Txn]
		if st != nil && st.header != nil && pkt.Seq >= st.header.Total {
			sh.mu.Unlock() // out of range: dropped like an undecodable packet
			continue
		}
		if st == nil {
			st = txnStates.Get().(*txnState)
			st.walShard, st.since = walShard, p.dep.Env.Now()
			sh.pending[pkt.Txn] = st
		}
		if pkt.First {
			st.headID = m.ID
			st.heads = append(st.heads, m.ReceiptHandle)
		} else {
			st.receipts = append(st.receipts, m.ReceiptHandle)
		}
		st.add(pkt)
		if st.header != nil && st.have == st.header.Total {
			ready = append(ready, st)
			delete(sh.pending, pkt.Txn)
			sh.inflight[pkt.Txn] = st
		}
		sh.mu.Unlock()
	}
	// Outside the shard locks: nothing else touches a transaction in flight.
	for _, st := range ready {
		st.err = decodeTxn(st)
		st.frags = st.frags[:0]
	}
	return ready, acks, held
}

// add records pkt's payload. frags grows with the sequence numbers received,
// never from the header's count, and a header drops what lies past it.
func (st *txnState) add(pkt walPacket) {
	st.frags = append(st.frags, make([][]byte, max(0, pkt.Seq+1-len(st.frags)))...)
	if st.frags[pkt.Seq] == nil {
		st.frags[pkt.Seq] = pkt.Payload
		st.have++
	}
	if pkt.First {
		hdr := pkt.Header
		st.header = &hdr
		for len(st.frags) > hdr.Total { // numbered past the count: forged
			if st.frags[len(st.frags)-1] != nil {
				st.have--
			}
			st.frags = st.frags[:len(st.frags)-1]
		}
	}
}

// endInflight closes st's in-flight window, if it is still open, and returns
// the receipts its cleanup acknowledges, tagged with st's WAL shard; nothing
// is added to st afterwards.
// With committed set the transaction is recorded as finished, so its
// redelivered packets are acknowledged from then on, and its hold counts
// towards the grant — unless the cleanup dies part-way
// (CrashCleanupAfterReceipts), which returns only the receipts acknowledged
// before and records nothing. Otherwise redelivered packets assemble afresh
// and the commit is retried.
func (p *P3) endInflight(st *txnState, committed bool) []shardReceipt {
	txn := st.header.Txn
	sh := p.shardFor(txn)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.inflight[txn] == st {
		delete(sh.inflight, txn)
	}
	st.ended = true
	receipts, heads := st.receipts, st.heads
	// In message-id order: a cleanup that dies part-way acknowledges a
	// prefix, and which prefix must not depend on map order. The header's
	// receipts come last, so that prefix never holds it while another packet
	// of the transaction is left (see P3).
	if len(st.redelivered) > 0 {
		for _, id := range slices.Sorted(maps.Keys(st.redelivered)) {
			if id == st.headID {
				heads = append(heads, st.redelivered[id]...)
			} else {
				receipts = append(receipts, st.redelivered[id]...)
			}
		}
	}
	pairs := st.tagged(receipts, heads)
	if committed {
		if acked, hit := p.dep.Env.CrashedAfter(CrashCleanupAfterReceipts, len(pairs)); hit {
			return pairs[:acked]
		}
		now := p.dep.Env.Now()
		sh.committed[txn] = now
		for h, held := p.hold.Load(), int64(now-st.since); held > h && !p.hold.CompareAndSwap(h, held); h = p.hold.Load() {
		}
	}
	return pairs
}

// tagged pairs receipts and then heads, the header packet's, with st's WAL
// shard.
func (st *txnState) tagged(receipts, heads []string) []shardReceipt {
	pairs := make([]shardReceipt, 0, len(receipts)+len(heads))
	for _, r := range receipts {
		pairs = append(pairs, shardReceipt{shard: st.walShard, receipt: r})
	}
	for _, r := range heads {
		pairs = append(pairs, shardReceipt{shard: st.walShard, receipt: r, head: true})
	}
	return pairs
}

// deleteReceipts acknowledges WAL messages on one queue shard in ≤10-entry
// DeleteMessageBatch calls in parallel on the provenance connection pool:
// receipts, then heads, the header packets'. The batches that carry a header
// run only after every other batch has succeeded, so a failed batch never
// leaves a transaction's packets behind its acknowledged header (see P3);
// held back, they redeliver with the rest. The first of them may carry the
// last receipts too, so it runs on its own before the batches of headers
// alone. Within each round every batch runs and every error is collected.
func (p *P3) deleteReceipts(wal *sqs.Queue, receipts, heads []string) error {
	all, cut := append(receipts, heads...), len(receipts)
	mixed := cut
	if len(heads) > 0 && cut%sqs.MaxBatchEntries != 0 {
		cut -= cut % sqs.MaxBatchEntries // the batches from here on carry a header
		mixed = min(cut+sqs.MaxBatchEntries, len(all))
	}
	for _, part := range [][]string{all[:cut], all[cut:mixed], all[mixed:]} {
		var tasks []func() error
		for batch := range slices.Chunk(part, sqs.MaxBatchEntries) {
			tasks = append(tasks, func() error { return wal.DeleteMessageBatch(batch) })
		}
		if errs := par.RunAll(p.opts.ProvConns, tasks); len(errs) > 0 {
			return errors.Join(errs...)
		}
	}
	return nil
}

// deleteReceiptPairs acknowledges shard-tagged receipts, one deleteReceipts
// call per shard in the order the shards first appear. Each
// DeleteMessageBatch is retried at its endpoint and nowhere else: a receipt
// that still fails is reported, redelivers after its visibility timeout and
// is acknowledged then.
func (p *P3) deleteReceiptPairs(pairs []shardReceipt) error {
	var errs []error
	for len(pairs) > 0 {
		sh := pairs[0].shard
		var receipts, heads []string
		rest := pairs[:0:0]
		for _, pr := range pairs {
			switch {
			case pr.shard != sh:
				rest = append(rest, pr)
			case pr.head:
				heads = append(heads, pr.receipt)
			default:
				receipts = append(receipts, pr.receipt)
			}
		}
		pairs = rest
		if wal := p.dep.WAL.Shard(sh); wal != nil { // nil: retired by a shrink, its receipts with it
			if err := p.deleteReceipts(wal, receipts, heads); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// groupScratch is a group commit's buffers, pooled: nothing keeps them.
type groupScratch struct {
	work   []*txnState
	all    []sdb.PutRequest
	groups []TxnCommit
}

var groupScratches = sync.Pool{New: func() any { return new(groupScratch) }}

// commitGroup pushes a set of complete transactions to their final state
// together, coalescing their provenance across transaction boundaries into
// full database batches per home domain, and returns the WAL receipts of the
// transactions it committed, tagged with the shards they arrived on, for the
// caller to acknowledge. Every step is idempotent so a crashed group commit
// can be re-run by any daemon; a transaction that fails a per-transaction
// step drops out of the group and is retried on redelivery without holding
// the others back. Once it returns, the group's states are back in their
// pool.
func (p *P3) commitGroup(group []*txnState) ([]shardReceipt, error) {
	sc := groupScratches.Get().(*groupScratch)
	// Whatever this call does not commit — crash points and errors included
	// — must assemble afresh on redelivery.
	defer func() {
		for _, st := range group {
			if !st.ended {
				p.endInflight(st, false)
			}
			st.release()
		}
		groupScratches.Put(sc)
	}()
	var errs []error

	// Spill each transaction's oversized values. (No transaction here can
	// already be committed: it has been in flight since it turned ready, so
	// no second assembly of it exists.)
	work := sc.work[:0]
	for _, st := range group {
		if st.err == nil {
			st.err = spillItems(p.dep.Store, st.reqs)
		}
		if st.err != nil {
			errs = append(errs, st.err)
			continue
		}
		work = append(work, st)
	}
	sc.work = work
	if len(work) == 0 {
		return nil, errors.Join(errs...)
	}

	if p.dep.Env.Crashed(CrashBeforeDB) {
		return nil, errors.Join(append(errs, fmt.Errorf("%w: commit daemon at %s", sim.ErrCrashed, CrashBeforeDB))...)
	}

	// 1+2. Store provenance in the database, coalescing the whole group's
	// items into batches of 25 per home domain regardless of transaction
	// boundaries (BulkPut partitions by item uuid, so a cross-shard
	// transaction's items land in their home domains in full batches). Puts
	// replace whole items, so a redelivered transaction rewrites the same
	// rows — a database failure here fails the group and redelivery retries.
	all, groups := sc.all[:0], sc.groups[:0]
	for _, w := range work {
		all = append(all, w.reqs...)
		groups = append(groups, TxnCommit{Txn: w.header.Txn, Digest: w.header.Digest, Reqs: w.reqs})
	}
	sc.all, sc.groups = all, groups
	if err := p.dep.DB.BulkPut(all, p.opts.ProvConns, false); err != nil {
		return nil, errors.Join(append(errs, err)...)
	}
	// The group's rows are acknowledged by the database — notify
	// subscribed caches before the data copy so a cache never serves a
	// pre-commit observation past this point. A crash below redelivers
	// the group and republishes; invalidation is idempotent.
	p.dep.publishCommit(groups)

	if p.dep.Env.Crashed(CrashAfterDB) {
		return nil, errors.Join(append(errs, fmt.Errorf("%w: commit daemon at %s", sim.ErrCrashed, CrashAfterDB))...)
	}

	// 3. COPY each temporary object to its permanent key, setting the
	// linking metadata as part of the COPY (atomic data+metadata update);
	// copies of distinct transactions run in parallel.
	err := par.ForEach(p.opts.DataConns, len(work), func(i int) error {
		w := work[i]
		if w.header.TmpKey != "" {
			meta := dataMeta(FileObject{Ref: w.header.Ref, Digest: w.header.Digest})
			if err := p.dep.Store.Copy(w.header.TmpKey, w.header.FinalKey, meta); err != nil {
				// The temp object may already be gone if a previous
				// daemon crashed between COPY+DELETE and message
				// acknowledgement; accept the state if the final object
				// carries our version.
				if !p.alreadyCommitted(w.header) {
					return fmt.Errorf("core: txn %s copy: %w", w.header.Txn, err)
				}
			}
		}
		w.copied = true
		return nil
	})
	if err != nil {
		errs = append(errs, err)
	}

	if p.dep.Env.Crashed(CrashAfterCopy) {
		return nil, errors.Join(append(errs, fmt.Errorf("%w: commit daemon at %s", sim.ErrCrashed, CrashAfterCopy))...)
	}

	// 4. The commit of each copied transaction is durable: mark it
	// committed before cleanup so redelivered packets are acknowledged, not
	// re-committed, even if a cleanup request fails. Then delete the
	// temporary objects, collecting every error instead of abandoning the
	// rest of the group at the first failure, and hand the group's WAL
	// receipts back for acknowledgement against their home shards.
	var receipts []shardReceipt
	for _, w := range work {
		if !w.copied {
			continue
		}
		receipts = append(receipts, p.endInflight(w, true)...)
		if w.header.TmpKey != "" {
			if err := p.dep.Store.Delete(w.header.TmpKey); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return receipts, errors.Join(errs...)
}

// decoders are the commit daemons' wire decoders, one per receiver decoding
// at a time.
var decoders = sync.Pool{New: func() any { return new(prov.Decoder) }}

// decodeTxn decodes a complete transaction's fragments where they lie, with
// no reassembly, into a pooled decoder's buffers, and builds its put
// requests from them, in st's own. The requests keep only the decoded
// strings, which are copies, so they stay valid once the decoder is reset
// and reused.
func decodeTxn(st *txnState) error {
	dec := decoders.Get().(*prov.Decoder)
	defer decoders.Put(dec)
	defer dec.Reset()
	bundles, err := dec.Decode(st.frags...)
	if err != nil {
		return fmt.Errorf("core: txn %s: %w", st.header.Txn, err)
	}
	st.reqs, st.attrs = itemsFor(st.reqs, st.attrs, bundles)
	return nil
}

// txnStates holds the states of finished transactions, their buffers kept.
var txnStates = sync.Pool{New: func() any { return new(txnState) }}

// release pools st, keeping its buffers' memory; nothing refers to st after.
func (st *txnState) release() {
	*st = txnState{frags: st.frags[:0], receipts: st.receipts[:0], heads: st.heads[:0], reqs: st.reqs[:0], attrs: st.attrs[:0]}
	txnStates.Put(st)
}

// alreadyCommitted checks whether the final object already carries the
// transaction's version (a prior daemon finished the COPY before dying).
func (p *P3) alreadyCommitted(hdr *walTxn) bool {
	meta, err := p.dep.Store.Head(hdr.FinalKey)
	if err != nil {
		return false
	}
	return meta[MetaUUID] == hdr.Ref.UUID.String() &&
		meta[MetaVersion] == strconv.Itoa(hdr.Ref.Version)
}

// Settle drains the commit-daemon pool until the WAL holds nothing
// actionable: each round runs CommitWorkers concurrent workers, each
// polling its subscribed WAL shards, and the loop ends after three
// consecutive rounds with no progress on any worker, once every WAL message
// has been received at least once or its staleness bound has passed. Incomplete
// transactions (crashed clients) are left for retention and the cleaner,
// as on the real system. Transactions a concurrently running RunDaemon
// still has in flight are not this caller's to act on either: stop the
// daemon, then Settle, for a final state.
func (p *P3) Settle() error {
	idle := 0
	var lastErr error
	// A WAL message no receive has delivered yet is still inside its
	// staleness window, which sim.Rand.Exp clamps at 8 means: after the idle
	// rounds, keep polling for it until that bound has passed.
	var deadline time.Duration
	for {
		if idle >= 3 {
			if deadline == 0 {
				deadline = p.dep.Env.Now() + 8*p.dep.Env.Config().StalenessMean
			}
			if p.dep.WAL.Unreceived() == 0 || p.dep.Env.Now() >= deadline {
				break
			}
		}
		workers := p.opts.CommitWorkers
		progress := make([]bool, workers)
		errs := make([]error, workers)
		par.ForEach(workers, workers, func(i int) error {
			progress[i], errs[i] = p.commitShards(p.walSubscription(i, workers))
			return nil
		})
		any := false
		for i := 0; i < workers; i++ {
			any = any || progress[i]
			if errs[i] != nil {
				lastErr = errs[i]
			}
		}
		if any {
			idle = 0
		} else {
			idle++
			// Let visibility timeouts and staleness windows pass so
			// unacknowledged messages reappear.
			p.dep.Env.Clock().Sleep(p.dep.Env.Config().StalenessMean)
		}
	}
	if err := p.absorbCommitted(); err != nil {
		lastErr = err
	}
	return lastErr
}

// absorbCommitted finishes the cleanup of committed transactions this P3
// has no record of, once Settle has drained the WAL: a daemon that died in a
// cleanup left each such transaction's header and some other packets
// behind, which assemble here but never complete. A pending transaction
// whose header is in is committed if one read finds its commit (see
// committedBefore); then its receipts are acknowledged and it is recorded
// as committed. A fault-free drain leaves nothing pending and makes no
// request here.
func (p *P3) absorbCommitted() error {
	var pairs []shardReceipt
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		var check []*txnState
		for _, st := range sh.pending {
			if st.header != nil {
				check = append(check, st)
			}
		}
		sh.mu.Unlock()
		slices.SortFunc(check, func(a, b *txnState) int { return bytes.Compare(a.header.Txn[:], b.header.Txn[:]) })
		for _, st := range check {
			if !p.committedBefore(st) {
				continue
			}
			sh.mu.Lock()
			if txn := st.header.Txn; sh.pending[txn] == st {
				delete(sh.pending, txn)
				sh.committed[txn] = p.dep.Env.Now()
				pairs = append(pairs, st.tagged(st.receipts, st.heads)...)
			}
			sh.mu.Unlock()
		}
	}
	return p.deleteReceiptPairs(pairs)
}

// committedBefore reports whether a prior daemon committed the incomplete
// transaction st: its final object carries its version or, without data,
// the database holds the first bundle of its header packet. Packets go
// missing only to a cleanup, which follows the whole commit, or with a
// client that died sending them; that transaction never completes anyway.
func (p *P3) committedBefore(st *txnState) bool {
	if st.header.TmpKey != "" {
		return p.alreadyCommitted(st.header)
	}
	ref, ok := prov.LeadingRef(st.frags[0])
	if !ok {
		return false
	}
	_, err := p.dep.DB.GetAttributes(ref.String())
	return err == nil
}

// PendingTxns reports transactions with packets outstanding (incomplete or
// not yet committed).
func (p *P3) PendingTxns() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		n += len(sh.pending) + len(sh.inflight)
		sh.mu.Unlock()
	}
	return n
}

// CleanerMaxAge is how long an unaccessed temporary object survives before
// the cleaner removes it (§4.3.3 uses the WAL's four-day retention).
const CleanerMaxAge = 4 * 24 * time.Hour

// RunCleaner makes one pass of the cleaner daemon: it forces a retention
// pass on every WAL shard (garbage-collecting expired packets of abandoned
// transactions even on shards no daemon happens to poll), forgets committed
// and half-assembled transactions none of whose packets the WAL can still
// hold, then lists
// temporary objects and deletes those not accessed within CleanerMaxAge
// (uncommitted leftovers of crashed clients). It returns the number of
// temporary objects removed.
func (p *P3) RunCleaner() (int, error) {
	p.dep.WAL.Len() // a retention pass on every shard
	p.forgetExpired()
	keys, _, err := p.dep.Store.ListAll(TmpPrefix)
	if err != nil {
		return 0, err
	}
	now := p.dep.Env.Now()
	removed := 0
	for _, k := range keys {
		at, ok := p.dep.Store.LastAccess(k)
		if !ok || now-at < CleanerMaxAge {
			continue
		}
		if err := p.dep.Store.Delete(k); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}

// forgetExpired drops every committed-transaction entry, and every
// transaction still assembling, older than the WAL's retention. A packet is
// sent before its transaction commits, and a client sends all of a
// transaction's packets at once, so once the retention has passed since the
// commit (or since the first packet arrived) the queue has expired every
// packet that could still redeliver or complete the transaction.
func (p *P3) forgetExpired() {
	now := p.dep.Env.Now()
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		maps.DeleteFunc(sh.committed, func(_ uuid.UUID, at time.Duration) bool { return now-at > sqs.Retention })
		maps.DeleteFunc(sh.pending, func(_ uuid.UUID, st *txnState) bool { return now-st.since > sqs.Retention })
		sh.mu.Unlock()
	}
}
