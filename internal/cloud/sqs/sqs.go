// Package sqs implements the simulated cloud messaging service (Amazon SQS
// as of 2009/2010): named queues of opaque messages with SendMessage,
// ReceiveMessage and DeleteMessageBatch operations.
//
// Semantics reproduced because the paper's protocol P3 depends on them:
//
//   - messages are capped at 8 KB, which forces P3 to chunk provenance and
//     to spill data to temporary store objects;
//   - delivery is at-least-once: a received message reappears after its
//     visibility timeout unless deleted, and the environment can inject
//     duplicate deliveries. Each receive states the timeout it grants
//     (Receive; ReceiveMessage grants DefaultVisibility), and each queue
//     records the longest it has granted (Granted), so whoever waits out a
//     dead receiver knows how long (QueueSet.Visibility);
//   - ordering is best effort, not guaranteed — P3 must reassemble
//     transactions from sequence numbers;
//   - messages older than the retention period (four days) are deleted
//     automatically, which is what garbage-collects abandoned transactions.
//
// Bodies are not copied (see Message), so the queue recycles the blocks
// NewBody hands out, each sized to its message (512 B to 8 KB, powers of
// two), once every delivery of a message is acknowledged.
//
// Batch variants of the write operations are provided — SendMessageBatch and
// DeleteMessageBatch, each taking at most MaxBatchEntries (10) entries per
// call. A batch call is one service request: it pays one request-rate gate
// admission and one billed request plus a small per-entry increment, so a
// full batch is roughly an order of magnitude faster and cheaper than the
// same entries sent one call each. P3's commit pipeline is built on them.
package sqs

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"passcloud/internal/sim"
)

// MaxMessageSize is the 8 KB SQS message size limit.
const MaxMessageSize = 8 << 10

// Retention is how long undeleted messages survive (four days).
const Retention = 4 * 24 * time.Hour

// DefaultVisibility is the visibility timeout ReceiveMessage grants.
const DefaultVisibility = 30 * time.Second

// MaxVisibility is the longest visibility timeout SQS lets a receive grant.
const MaxVisibility = 12 * time.Hour

// MaxBatchEntries is the entry limit of SendMessageBatch/DeleteMessageBatch.
const MaxBatchEntries = 10

// ErrMessageTooLarge is returned by SendMessage for bodies over 8 KB.
var ErrMessageTooLarge = errors.New("sqs: message exceeds 8KB")

// ErrBatchTooLarge is returned by the batch calls for more than 10 entries.
var ErrBatchTooLarge = errors.New("sqs: more than 10 entries in batch")

// blocks holds, per size class c (minBlock<<c bytes, up to MaxMessageSize),
// the first bytes of the blocks of messages whose every delivery was acked.
var blocks [5]sync.Pool

const minBlock = 512

// blockClass is the class of the smallest block holding n bytes.
func blockClass(n int) int { return bits.Len(uint(max(n, 1)-1) / minBlock) }

// NewBody returns an empty message body with room for n bytes, at most
// MaxMessageSize: a block of the smallest class that holds them.
func NewBody(n int) []byte {
	c := blockClass(min(n, MaxMessageSize))
	if p, ok := blocks[c].Get().(*byte); ok {
		return unsafe.Slice(p, minBlock<<c)[:0]
	}
	return make([]byte, 0, minBlock<<c)
}

// Message is one received message.
//
// Body is a read-only view of the body the queue stores, shared by every
// delivery of the message: it is valid until the receiver deletes this
// delivery's receipt. A send hands its body over the same way: the queue
// stores the sender's bytes, not a copy, so a sender gives up the body's
// memory, up to its cap, when it sends it.
type Message struct {
	ID            string
	ReceiptHandle string
	Body          []byte
}

// message is the queue's internal record. body is the sender's slice, set
// when the message is enqueued and released (set to nil) by a delete: to
// the pool once every delivery's receipt is deleted (acked, one bit per
// receipt #n, so a retried delete counts once), to the collector if the
// message has a twin, whose deliveries reuse the receipt numbers. A deleted
// record with deliveries unacknowledged keeps it until the next expiry pass.
type message struct {
	id        string
	body      []byte
	sentAt    time.Duration
	visibleAt time.Duration // consistency + visibility-timeout gate
	deleted   bool
	receipts  int
	acked     uint64   // bit n-1: receipt #n was deleted
	twin      *message // the injected duplicate stored under the same id, if any
}

// dedupEntry is one applied idempotency token and when it was recorded.
type dedupEntry struct {
	token string
	at    time.Duration
}

// Queue is one SQS queue bound to a simulated environment.
type Queue struct {
	env     *sim.Env
	name    string
	ep      sim.Endpoint // the request envelope; each queue is its own service partition
	granted atomic.Int64 // the longest visibility timeout a receive has granted, set under mu

	mu      sync.Mutex
	msgs    []*message
	byID    map[string]*message // stored messages by id; a duplicate hangs off its twin
	seq     int
	autoSeq int // distinguishes auto-generated idempotency tokens
	// dedup maps idempotency tokens of applied sends to the message ids they
	// enqueued, so a retried send (after an ambiguous fault) returns the
	// original ids instead of enqueueing twice. Entries age out with the
	// retention period: dedupAge lists them in the order they were recorded,
	// which is clock order (give or take the skew between concurrent
	// senders), so expiry only ever looks at its head.
	dedup    map[string][]string
	dedupAge []dedupEntry
}

// New creates an empty queue with default visibility and retention.
func New(env *sim.Env, name string) *Queue {
	return NewLane(env, name, 0)
}

// NewLane creates an empty queue on a specific rate-gate lane. Queues on
// distinct lanes have independent request-rate ceilings — the real service
// throttles per queue, which is what makes K-way WAL sharding scale the log
// path. Lane 0 shares the environment's default SQS gate.
func NewLane(env *sim.Env, name string, lane int) *Queue {
	return &Queue{
		env: env, name: name, ep: env.Endpoint(name, lane),
		byID: make(map[string]*message), dedup: make(map[string][]string),
	}
}

// Name returns the queue name.
func (q *Queue) Name() string { return q.name }

// autoToken mints a per-call idempotency token for sends whose caller did
// not supply one, so the internal retry of an ambiguous fault still
// deduplicates exactly-once.
func (q *Queue) autoToken() string {
	q.mu.Lock()
	q.autoSeq++
	n := q.autoSeq
	q.mu.Unlock()
	return "auto/" + q.name + "/" + strconv.Itoa(n)
}

// SendMessage enqueues body and returns the message id.
func (q *Queue) SendMessage(body []byte) (string, error) {
	ids, err := q.send(q.ep, sim.OpSQSSend, []BatchEntry{{Body: body}}, q.autoToken())
	if len(ids) == 0 {
		return "", err
	}
	return ids[0], err
}

// enqueueLocked stores body, not a copy, as a new message and returns its id.
func (q *Queue) enqueueLocked(body []byte, now time.Duration) string {
	q.seq++
	// The id is the queue name and the sequence number zero-padded to eight
	// digits.
	var buf [20]byte
	seq := strconv.AppendInt(buf[:0], int64(q.seq), 10)
	m := &message{
		id:        q.name + "-" + "00000000"[:max(0, 8-len(seq))] + string(seq),
		body:      body,
		sentAt:    now,
		visibleAt: now + q.env.StalenessWindow(),
	}
	q.msgs = append(q.msgs, m)
	q.byID[m.id] = m
	if q.env.Config().DupProb > 0 && q.env.Rand().Bool(q.env.Config().DupProb) {
		// At-least-once delivery: the service occasionally stores the
		// message twice (same id; distinct receipt lineage). It applies per
		// entry of a batch exactly as it does to entry-by-entry sends.
		dup := *m
		m.twin = &dup
		q.msgs = append(q.msgs, &dup)
	}
	return m.id
}

// dedupLocked reports the ids a token already enqueued, if any.
func (q *Queue) dedupLocked(token string) ([]string, bool) {
	if token == "" {
		return nil, false
	}
	ids, ok := q.dedup[token]
	return ids, ok
}

// rememberLocked records an applied token so retries deduplicate. Callers
// have just seen dedupLocked miss, so a token is listed at most once.
func (q *Queue) rememberLocked(token string, ids []string, now time.Duration) {
	if token == "" {
		return
	}
	q.dedup[token] = ids
	q.dedupAge = append(q.dedupAge, dedupEntry{token: token, at: now})
}

// SendMessageBatch enqueues up to MaxBatchEntries bodies in one service
// request and returns their message ids in order. Each body observes the
// 8 KB message limit individually; the call fails atomically (nothing is
// enqueued) if any entry is oversized or the batch has too many entries.
func (q *Queue) SendMessageBatch(bodies [][]byte) ([]string, error) {
	return q.SendMessageBatchIdem(bodies, q.autoToken())
}

// SendMessageBatchIdem is SendMessageBatch with an explicit idempotency
// token covering the whole batch: a retry carrying an applied token returns
// the original ids without enqueueing again (P3's are "txn-uuid/seq").
func (q *Queue) SendMessageBatchIdem(bodies [][]byte, token string) ([]string, error) {
	entries := make([]BatchEntry, len(bodies))
	for i, body := range bodies {
		entries[i].Body = body
	}
	return q.send(q.ep, sim.OpSQSSendBatch, entries, token)
}

// BatchEntry is one entry of SendMessageBatchEntries: a body plus its own
// idempotency token. An empty token entry enqueues unconditionally.
type BatchEntry struct {
	Body  []byte
	Token string
}

// SendMessageBatchEntries enqueues up to MaxBatchEntries entries in one
// service request, deduplicating per entry: an entry whose token the queue
// has already applied returns the original message id without enqueueing
// again, while the fresh entries of the same batch are enqueued normally.
// This is what makes combined batches retry-safe — a front-door write
// combiner packs chunks of several transactions into one batch, and a
// retried batch (after an ambiguous fault) or a differently-composed retry
// batch never double-enqueues the entries that already landed, which the
// whole-batch token of SendMessageBatchIdem cannot express. The request is
// made for the tenant ctx carries (sim.WithTenant), if any.
func (q *Queue) SendMessageBatchEntries(ctx context.Context, entries []BatchEntry) ([]string, error) {
	return q.send(q.ep.For(ctx), sim.OpSQSSendBatch, entries, "")
}

// send is a send of entries as op, made through ep: SendMessage's, or a
// SendMessageBatch's with a token for the whole batch or one per entry.
func (q *Queue) send(ep sim.Endpoint, op sim.OpKind, entries []BatchEntry, token string) ([]string, error) {
	if len(entries) > MaxBatchEntries {
		return nil, fmt.Errorf("%w (%d entries)", ErrBatchTooLarge, len(entries))
	}
	payload := 0
	for _, e := range entries {
		if len(e.Body) > MaxMessageSize {
			return nil, fmt.Errorf("%w (%d bytes)", ErrMessageTooLarge, len(e.Body))
		}
		payload += len(e.Body)
	}
	if len(entries) == 0 {
		return nil, nil
	}
	return sim.Call(ep, func() ([]string, error) { return q.sendOnce(op, entries, token, payload) })
}

// sendOnce is one service attempt of a send. An ambiguous fault (applied)
// enqueues the messages, records the tokens, and still reports the error.
// The batch's token, then each entry's, returns the ids it already enqueued.
func (q *Queue) sendOnce(op sim.OpKind, entries []BatchEntry, token string, payload int) ([]string, error) {
	ferr, applied := q.ep.Fault(op)
	if ferr != nil && !applied {
		return nil, ferr
	}
	q.ep.Exec(op, payload, len(entries))
	now := q.env.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	if ids, ok := q.dedupLocked(token); ok {
		return ids, ferr
	}
	ids := make([]string, 0, len(entries))
	for _, e := range entries {
		if prev, ok := q.dedupLocked(e.Token); ok {
			ids = append(ids, prev[0])
			continue
		}
		id := q.enqueueLocked(e.Body, now)
		if e.Token != "" {
			q.rememberLocked(e.Token, []string{id}, now)
		}
		ids = append(ids, id)
	}
	q.rememberLocked(token, ids, now)
	return ids, ferr
}

// ReceiveMessage is Receive into a new page with the default visibility.
func (q *Queue) ReceiveMessage(max int) []Message { return q.Receive(nil, max, DefaultVisibility) }

// Receive appends up to max (at most 10) visible messages to dst, making
// them invisible for visibility, clamped to MaxVisibility. Adding none means
// the queue had nothing visible — the caller should poll again. The bodies
// are read-only views (see Message).
func (q *Queue) Receive(dst []Message, max int, visibility time.Duration) []Message {
	if max <= 0 {
		max = 1
	}
	max, visibility = min(max, 10), min(visibility, MaxVisibility)
	if ferr, _ := q.ep.Fault(sim.OpSQSReceive); ferr != nil {
		// A throttled poll surfaces as an empty page: ReceiveMessage's
		// contract is already "nothing visible, poll again", which is
		// exactly how callers must treat a transient receive failure. The
		// failed round-trip still costs a request.
		return dst
	}
	now := q.env.Now()
	q.mu.Lock()
	q.expireLocked(now)
	out, base := dst, len(dst)
	// Best-effort ordering: start the scan at a pseudo-random offset so
	// consumers cannot rely on FIFO delivery.
	n := len(q.msgs)
	start := 0
	if n > 1 {
		start = q.env.Rand().Intn(n)
	}
	bytes := 0
	for i := 0; i < n && len(out)-base < max; i++ {
		m := q.msgs[(start+i)%n]
		if m.deleted || m.visibleAt > now {
			continue
		}
		m.visibleAt = now + visibility
		m.receipts++
		out = append(out, Message{
			ID:            m.id,
			ReceiptHandle: m.id + "#" + strconv.Itoa(m.receipts),
			Body:          m.body,
		})
		bytes += len(m.body)
	}
	if len(out) > base && int64(visibility) > q.granted.Load() {
		q.granted.Store(int64(visibility))
	}
	q.mu.Unlock()
	q.ep.Exec(sim.OpSQSReceive, bytes, 0)
	return out
}

// deleteLocked marks the message a receipt handle names, and its duplicate
// if the service stored one, as deleted, and releases their body once no
// delivery can still read it (see message).
func (q *Queue) deleteLocked(receipt string) {
	id, n, _ := strings.Cut(receipt, "#")
	m := q.byID[id]
	if m == nil {
		return
	}
	m.deleted = true
	if m.twin != nil {
		m.body, m.twin.deleted, m.twin.body = nil, true, nil
		return
	}
	if k, err := strconv.Atoi(n); err == nil && k > 0 && k <= min(m.receipts, 64) {
		m.acked |= 1 << (k - 1)
	}
	if m.receipts <= 64 && m.acked == uint64(1)<<m.receipts-1 {
		if c := blockClass(cap(m.body)); c < len(blocks) && minBlock<<c == cap(m.body) {
			blocks[c].Put(unsafe.SliceData(m.body)) // a block: back to its class
		}
		m.body = nil
	}
}

// DeleteMessageBatch removes up to MaxBatchEntries messages named by receipt
// handles in one service request. Deleting an already-deleted message
// succeeds, as on SQS.
func (q *Queue) DeleteMessageBatch(receipts []string) error {
	if len(receipts) > MaxBatchEntries {
		return fmt.Errorf("%w (%d entries)", ErrBatchTooLarge, len(receipts))
	}
	if len(receipts) == 0 {
		return nil
	}
	return q.ep.Do(func() error { return q.deleteBatchOnce(receipts) })
}

func (q *Queue) deleteBatchOnce(receipts []string) error {
	ferr, applied := q.ep.Fault(sim.OpSQSDeleteBatch)
	if ferr != nil && !applied {
		return ferr
	}
	q.ep.Exec(sim.OpSQSDeleteBatch, 0, len(receipts))
	q.mu.Lock()
	for _, receipt := range receipts {
		q.deleteLocked(receipt)
	}
	q.mu.Unlock()
	return ferr
}

// expireLocked drops messages past the retention period; SQS performs this
// automatically, and P3 relies on it to garbage collect the WAL.
func (q *Queue) expireLocked(now time.Duration) {
	aged := 0
	for aged < len(q.dedupAge) && now-q.dedupAge[aged].at > Retention {
		delete(q.dedup, q.dedupAge[aged].token)
		aged++
	}
	clear(q.dedupAge[:aged]) // drop the token strings with the entries
	q.dedupAge = q.dedupAge[aged:]
	kept := q.msgs[:0]
	for _, m := range q.msgs {
		if m.deleted || now-m.sentAt > Retention {
			delete(q.byID, m.id) // a twin shares its fate, so goes in the same pass
			continue
		}
		kept = append(kept, m)
	}
	// Zero the tail so dropped messages can be collected.
	for i := len(kept); i < len(q.msgs); i++ {
		q.msgs[i] = nil
	}
	q.msgs = kept
}

// Granted reports the longest visibility timeout a receive has granted on
// the queue: a message received and never deleted is visible again at most
// that long after its receive.
func (q *Queue) Granted() time.Duration { return time.Duration(q.granted.Load()) }

// Len reports the number of undeleted, unexpired messages (visible or not).
// The service expires messages lazily, on access; Len's retention pass is
// one such access.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked(q.env.Now())
	return len(q.msgs)
}

// Unreceived reports the undeleted, unexpired messages that no receive has
// delivered yet. It reads the queue's state and bills nothing.
func (q *Queue) Unreceived() int {
	now := q.env.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, m := range q.msgs {
		if !m.deleted && m.receipts == 0 && now-m.sentAt <= Retention {
			n++
		}
	}
	return n
}
