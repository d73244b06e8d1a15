package core

import (
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
	"passcloud/internal/cloud/store"
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
//     temporary object pointer, the final key and the version.
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
// committed transaction are simply acknowledged, never re-committed. While
// a transaction's own group commit is still running — it can outlast the
// visibility timeout many times over — the transaction is in flight and a
// redelivered packet only adds its receipt to that commit's cleanup.
type P3 struct {
	dep  *Deployment
	opts Options

	// shards hold per-transaction assembly and commit state; packets are
	// routed by transaction uuid so the worker pool contends on a shard,
	// never on the whole table.
	shards [txnShards]txnShard

	chunkSize int

	// cursor rotates CommitOnce's starting WAL shard so un-subscribed
	// callers (tests, single-daemon loops) still cover every shard fairly.
	cursor atomic.Uint64
}

// txnShards is the number of assembly shards; a small power of two keeps
// routing cheap while letting a pool of daemons fold packets concurrently.
const txnShards = 16

// txnShard is one slice of the transaction-assembly table.
type txnShard struct {
	mu      sync.Mutex
	pending map[uuid.UUID]*txnState
	// inflight holds a transaction from the moment its last packet arrives
	// until its group commit marks it committed or gives up on it. A group
	// commit can outlast the WAL's visibility timeout many times over; a
	// packet redelivered meanwhile only adds its receipt here instead of
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
// must ignore it), a cleanup that acknowledges n of a committed group's
// receipts (the rest must be absorbed as redeliveries, not re-committed).
const (
	CrashClientAfterPackets   sim.CrashPoint = "p3.client.after-packets"
	CrashBeforeDB             sim.CrashPoint = "p3.daemon.before-db"  // before provenance reaches the database
	CrashAfterDB              sim.CrashPoint = "p3.daemon.after-db"   // provenance stored, data not yet copied
	CrashAfterCopy            sim.CrashPoint = "p3.daemon.after-copy" // data copied, temp + WAL not yet cleaned
	CrashCleanupAfterReceipts sim.CrashPoint = "p3.cleanup.after-receipts"
)

// txnState accumulates packets of one transaction. walShard is the WAL
// shard the packets arrived on — the transaction's home shard, where its
// receipts must be acknowledged. Once the last packet is in, the payload is
// decoded once, into bundles (or err), and the fragments are let go.
type txnState struct {
	header   *walTxn
	got      map[int][]byte
	receipts []string
	walShard int
	bundles  []prov.Bundle
	err      error
	// redelivered holds, by message id, the latest receipt of each message
	// delivered again while the transaction was in flight (nil until then).
	redelivered map[string]string
}

// shardReceipt is one WAL receipt paired with the shard it came from, so
// cleanup can batch acknowledgements per shard.
type shardReceipt struct {
	shard   int
	receipt string
}

// NewP3 returns a P3 client (and its daemons' logic) bound to dep.
func NewP3(dep *Deployment, opts Options) *P3 {
	p := &P3{
		dep:       dep,
		opts:      opts.withDefaults(150),
		chunkSize: DefaultChunkSize,
	}
	for i := range p.shards {
		p.shards[i].pending = make(map[uuid.UUID]*txnState)
		p.shards[i].inflight = make(map[uuid.UUID]*txnState)
		p.shards[i].committed = make(map[uuid.UUID]time.Duration)
	}
	return p
}

// Name implements Protocol.
func (p *P3) Name() string { return "P3" }

// Workers reports the size of the commit-daemon pool.
func (p *P3) Workers() int { return p.opts.CommitWorkers }

// SetChunkSize overrides the WAL chunk payload size (ablation benchmarks).
func (p *P3) SetChunkSize(n int) { p.chunkSize = n }

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
	l.msgs = encodeWALBundles(txn, hdr, bundles, p.chunkSize)

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
		end := start + sqs.MaxBatchEntries
		if end > len(msgs) {
			end = len(msgs)
		}
		start, batch := start, msgs[start:end]
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
	if n < 1 {
		n = 1
	}
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

// assemble is the receive-and-fold half of a commit round: per subscribed
// shard, a single probing receive, then — while pages come back full —
// concurrent waves, up to budget receives in all.
func (p *P3) assemble(shards []int, budget int) round {
	r := round{short: true}
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
			pages := make([][]sqs.Message, wave)
			var wg sync.WaitGroup
			for w := 0; w < wave; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					pages[w] = wal.ReceiveMessage(10)
				}()
			}
			wg.Wait()
			for _, msgs := range pages {
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
				for _, rcpt := range a {
					r.acks = append(r.acks, shardReceipt{shard: si, receipt: rcpt})
				}
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
// message bodies, which are read-only views of what the queue stores.
func (p *P3) foldMessages(walShard int, msgs []sqs.Message) (ready []*txnState, acks []string, held int) {
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
			acks = append(acks, m.ReceiptHandle)
			continue
		}
		if st := sh.inflight[pkt.Txn]; st != nil {
			// Redelivery while the transaction's own group commit is still
			// running: only the receipt is new, and it is acknowledged with
			// the rest when that commit finishes. One per message, the
			// latest: however long the commit runs, the transaction's
			// cleanup stays bounded by its packet count.
			if st.redelivered == nil {
				st.redelivered = make(map[string]string)
			}
			st.redelivered[m.ID] = m.ReceiptHandle
			sh.mu.Unlock()
			held++
			continue
		}
		st := sh.pending[pkt.Txn]
		if st == nil {
			st = &txnState{got: make(map[int][]byte), walShard: walShard}
			sh.pending[pkt.Txn] = st
		}
		st.receipts = append(st.receipts, m.ReceiptHandle)
		if _, dup := st.got[pkt.Seq]; !dup {
			st.got[pkt.Seq] = pkt.Payload
		}
		if pkt.First {
			hdr := pkt.Header
			st.header = &hdr
		}
		if st.header != nil && len(st.got) == st.header.Total {
			ready = append(ready, st)
			delete(sh.pending, pkt.Txn)
			sh.inflight[pkt.Txn] = st
		}
		sh.mu.Unlock()
	}
	// Outside the shard locks: nothing else touches a transaction in flight.
	for _, st := range ready {
		st.bundles, st.err = decodeTxn(st)
		st.got = nil
	}
	return ready, acks, held
}

// endInflight closes st's in-flight window, if it is still open, and returns
// every receipt gathered for it; nothing is added to st afterwards. With
// committed set the transaction is first recorded as finished, so its
// redelivered packets are acknowledged from then on; otherwise they
// assemble afresh and the commit is retried.
func (p *P3) endInflight(st *txnState, committed bool) []string {
	txn := st.header.Txn
	sh := p.shardFor(txn)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if committed {
		sh.committed[txn] = p.dep.Env.Now()
	}
	if sh.inflight[txn] == st {
		delete(sh.inflight, txn)
	}
	receipts := st.receipts
	// In message-id order: a cleanup that dies part-way acknowledges a
	// prefix, and which prefix must not depend on map order.
	for _, id := range slices.Sorted(maps.Keys(st.redelivered)) {
		receipts = append(receipts, st.redelivered[id])
	}
	return receipts
}

// deleteReceipts acknowledges WAL messages on one queue shard in ≤10-entry
// DeleteMessageBatch calls running in parallel on the provenance connection
// pool, collecting — not short-circuiting on — per-batch errors so one
// failure cannot leave later receipts silently unacknowledged.
func (p *P3) deleteReceipts(wal *sqs.Queue, receipts []string) error {
	var tasks []func() error
	for start := 0; start < len(receipts); start += sqs.MaxBatchEntries {
		end := start + sqs.MaxBatchEntries
		if end > len(receipts) {
			end = len(receipts)
		}
		batch := receipts[start:end]
		tasks = append(tasks, func() error { return wal.DeleteMessageBatch(batch) })
	}
	return errors.Join(par.RunAll(p.opts.ProvConns, tasks)...)
}

// deleteReceiptPairs groups shard-tagged receipts by home shard and
// acknowledges each shard's group; deletes are idempotent, so order does
// not matter (the mid-cleanup fault injection truncates the pair list
// before this runs). Each DeleteMessageBatch is retried at its endpoint and
// nowhere else: a receipt that still fails is reported, redelivers after its
// visibility timeout and is acknowledged then.
func (p *P3) deleteReceiptPairs(pairs []shardReceipt) error {
	if len(pairs) == 0 {
		return nil
	}
	perShard := make(map[int][]string)
	order := make([]int, 0, 4)
	for _, pr := range pairs {
		if _, seen := perShard[pr.shard]; !seen {
			order = append(order, pr.shard)
		}
		perShard[pr.shard] = append(perShard[pr.shard], pr.receipt)
	}
	var errs []error
	for _, sh := range order {
		wal := p.dep.WAL.Shard(sh)
		if wal == nil {
			continue // shard retired by a shrink; its receipts died with it
		}
		if err := p.deleteReceipts(wal, perShard[sh]); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// txnWork is one transaction moving through the group-commit pipeline.
type txnWork struct {
	st     *txnState
	hdr    *walTxn
	reqs   []sdb.PutRequest
	copied bool
}

// commitGroup pushes a set of complete transactions to their final state
// together, coalescing their provenance across transaction boundaries into
// full database batches per home domain, and returns the WAL receipts of the
// transactions it committed, tagged with the shards they arrived on, for the
// caller to acknowledge. Every step is idempotent so a crashed group commit
// can be re-run by any daemon; a transaction that fails a per-transaction
// step drops out of the group and is retried on redelivery without holding
// the others back.
func (p *P3) commitGroup(group []*txnState) ([]shardReceipt, error) {
	// Whatever this call does not commit — crash points and errors included
	// — must assemble afresh on redelivery.
	defer func() {
		for _, st := range group {
			p.endInflight(st, false)
		}
	}()
	var errs []error

	// Convert each transaction's decoded bundles into database put
	// requests, spilling oversized values. (No transaction here can already
	// be committed: it has been in flight since it turned ready, so no
	// second assembly of it exists.)
	work := make([]*txnWork, 0, len(group))
	for _, st := range group {
		if st.err != nil {
			errs = append(errs, st.err)
			continue
		}
		reqs, err := itemsFor(p.dep.Store, st.bundles)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		work = append(work, &txnWork{st: st, hdr: st.header, reqs: reqs})
	}
	if len(work) == 0 {
		return nil, errors.Join(errs...)
	}

	if p.dep.Env.Crashed(CrashBeforeDB) {
		return nil, errors.Join(append(errs, fmt.Errorf("%w: commit daemon at %s", sim.ErrCrashed, CrashBeforeDB))...)
	}

	// 1+2. Store provenance in the database, coalescing the whole group's
	// items into batches of 25 per home domain regardless of transaction
	// boundaries (putItems partitions by item uuid, so a cross-shard
	// transaction's items land in their home domains in full batches). Puts
	// replace whole items, so a redelivered transaction rewrites the same
	// rows — a database failure here fails the group and redelivery retries.
	all := make([]sdb.PutRequest, 0, len(work))
	groups := make([]TxnCommit, 0, len(work))
	for _, w := range work {
		all = append(all, w.reqs...)
		groups = append(groups, TxnCommit{Txn: w.hdr.Txn, Digest: w.hdr.Digest, Reqs: w.reqs})
	}
	if err := putItems(p.dep.DB, all, p.opts.ProvConns, false); err != nil {
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
	tasks := make([]func() error, len(work))
	for i, w := range work {
		w := w
		tasks[i] = func() error {
			if w.hdr.TmpKey != "" {
				meta := store.Metadata{
					MetaUUID:    w.hdr.Ref.UUID.String(),
					MetaVersion: strconv.Itoa(w.hdr.Ref.Version),
				}
				if w.hdr.Digest != "" {
					meta[MetaMerkle] = w.hdr.Digest
				}
				if err := p.dep.Store.Copy(w.hdr.TmpKey, w.hdr.FinalKey, meta); err != nil {
					// The temp object may already be gone if a previous
					// daemon crashed between COPY+DELETE and message
					// acknowledgement; accept the state if the final object
					// carries our version.
					if !p.alreadyCommitted(w.hdr) {
						return fmt.Errorf("core: txn %s copy: %w", w.hdr.Txn, err)
					}
				}
			}
			w.copied = true
			return nil
		}
	}
	if err := par.Run(p.opts.DataConns, tasks); err != nil {
		errs = append(errs, err)
	}

	if p.dep.Env.Crashed(CrashAfterCopy) {
		return nil, errors.Join(append(errs, fmt.Errorf("%w: commit daemon at %s", sim.ErrCrashed, CrashAfterCopy))...)
	}

	// 4. The commit of each copied transaction is durable: mark it
	// committed before cleanup so redelivered packets are acknowledged, not
	// re-committed, even if cleanup fails part-way. Then delete the
	// temporary objects, collecting every error instead of abandoning the
	// rest of the group at the first failure, and hand the group's WAL
	// receipts back for acknowledgement against their home shards.
	var receipts []shardReceipt
	for _, w := range work {
		if !w.copied {
			continue
		}
		gathered := p.endInflight(w.st, true)
		if w.hdr.TmpKey != "" {
			if err := p.dep.Store.Delete(w.hdr.TmpKey); err != nil {
				errs = append(errs, err)
			}
		}
		for _, r := range gathered {
			receipts = append(receipts, shardReceipt{shard: w.st.walShard, receipt: r})
		}
	}
	if acked, hit := p.dep.Env.CrashedAfter(CrashCleanupAfterReceipts, len(receipts)); hit {
		// The rest of the receipts stay unacknowledged and must be absorbed
		// as redeliveries.
		receipts = receipts[:acked]
	}
	return receipts, errors.Join(errs...)
}

// decodeTxn reassembles a complete transaction's payload and decodes it. A
// single-packet transaction decodes straight from its packet; otherwise the
// fragments are copied once into a buffer sized from their lengths. Either
// way prov.DecodeBundles copies what it keeps, so the bundles alias neither.
func decodeTxn(st *txnState) ([]prov.Bundle, error) {
	hdr := st.header
	size := 0
	for seq := 0; seq < hdr.Total; seq++ {
		chunk, ok := st.got[seq]
		if !ok {
			return nil, fmt.Errorf("core: txn %s missing packet %d", hdr.Txn, seq)
		}
		size += len(chunk)
	}
	payload := st.got[0]
	if hdr.Total > 1 {
		payload = make([]byte, 0, size)
		for seq := 0; seq < hdr.Total; seq++ {
			payload = append(payload, st.got[seq]...)
		}
	}
	bundles, err := prov.DecodeBundles(payload)
	if err != nil {
		return nil, fmt.Errorf("core: txn %s: %w", hdr.Txn, err)
	}
	return bundles, nil
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
// polling its subscribed WAL shards, and the loop ends after several
// consecutive rounds with no progress on any worker. Incomplete
// transactions (crashed clients) are left for retention and the cleaner,
// as on the real system. Transactions a concurrently running RunDaemon
// still has in flight are not this caller's to act on either: stop the
// daemon, then Settle, for a final state.
func (p *P3) Settle() error {
	idle := 0
	var lastErr error
	for idle < 3 {
		workers := p.opts.CommitWorkers
		progress := make([]bool, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				progress[i], errs[i] = p.commitShards(p.walSubscription(i, workers))
			}()
		}
		wg.Wait()
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
			p.dep.Env.Clock().Sleep(p.dep.WAL.Env().Config().StalenessMean)
		}
	}
	return lastErr
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

// Delete removes the primary object; provenance is untouched.
func (p *P3) Delete(path string) error {
	return p.dep.Store.Delete(DataKey(path))
}

// Fetch retrieves the primary object.
func (p *P3) Fetch(path string) (store.Object, error) {
	return p.dep.Store.Get(DataKey(path))
}

// CleanerMaxAge is how long an unaccessed temporary object survives before
// the cleaner removes it (§4.3.3 uses the WAL's four-day retention).
const CleanerMaxAge = 4 * 24 * time.Hour

// RunCleaner makes one pass of the cleaner daemon: it forces a retention
// pass on every WAL shard (garbage-collecting expired packets of abandoned
// transactions even on shards no daemon happens to poll), forgets committed
// transactions none of whose packets the WAL can still hold, finishes any
// reshard GC a dead resharder left pending (deleting the stale item copies
// on drained ranges and retiring decommissioned shards — see reshard.go),
// then lists temporary objects and deletes those not accessed within maxAge
// (uncommitted leftovers of crashed clients). It returns the number of
// temporary objects removed.
func (p *P3) RunCleaner(maxAge time.Duration) (int, error) {
	if maxAge <= 0 {
		maxAge = CleanerMaxAge
	}
	p.dep.WAL.GC()
	p.forgetCommitted()
	if err := p.dep.FinishPendingReshardGC(context.Background()); err != nil {
		return 0, err
	}
	keys, _, err := p.dep.Store.ListAll(TmpPrefix)
	if err != nil {
		return 0, err
	}
	now := p.dep.Env.Now()
	removed := 0
	for _, k := range keys {
		at, ok := p.dep.Store.LastAccess(k)
		if !ok || now-at < maxAge {
			continue
		}
		if err := p.dep.Store.Delete(k); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}

// forgetCommitted drops every committed-transaction entry older than the
// WAL's retention. A packet is sent before its transaction commits, so once
// the retention has passed since the commit the queue has expired every
// packet that could still redeliver the transaction.
func (p *P3) forgetCommitted() {
	retention := p.dep.WAL.Retention()
	now := p.dep.Env.Now()
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		maps.DeleteFunc(sh.committed, func(_ uuid.UUID, at time.Duration) bool { return now-at > retention })
		sh.mu.Unlock()
	}
}
