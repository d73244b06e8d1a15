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
//     duplicate deliveries;
//   - ordering is best effort, not guaranteed — P3 must reassemble
//     transactions from sequence numbers;
//   - messages older than the retention period (four days) are deleted
//     automatically, which is what garbage-collects abandoned transactions.
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
	"strconv"
	"strings"
	"sync"
	"time"

	"passcloud/internal/sim"
)

// MaxMessageSize is the 8 KB SQS message size limit.
const MaxMessageSize = 8 << 10

// DefaultRetention is how long undeleted messages survive (four days).
const DefaultRetention = 4 * 24 * time.Hour

// DefaultVisibility is the default visibility timeout after a receive.
const DefaultVisibility = 30 * time.Second

// MaxBatchEntries is the entry limit of SendMessageBatch/DeleteMessageBatch.
const MaxBatchEntries = 10

// ErrMessageTooLarge is returned by SendMessage for bodies over 8 KB.
var ErrMessageTooLarge = errors.New("sqs: message exceeds 8KB")

// ErrBatchTooLarge is returned by the batch calls for more than 10 entries.
var ErrBatchTooLarge = errors.New("sqs: more than 10 entries in batch")

// Message is one received message.
//
// Body is a read-only view of the body the queue stores, shared by every
// delivery of the message: a receiver may parse it and keep it for as long
// as it likes, but must not write to it. A send hands its body over the
// same way: the queue stores the sender's bytes, not a copy, so a sender
// must not write to a body after sending it.
type Message struct {
	ID            string
	ReceiptHandle string
	Body          []byte
}

// message is the queue's internal record. body is the sender's slice, set
// when the message is enqueued, never written, and released (set to nil)
// when the message is deleted: receivers hold their own slice of it, and the
// queue holds a deleted record only until its next expiry pass, which a
// shard nobody polls any more never runs.
type message struct {
	id        string
	body      []byte
	sentAt    time.Duration
	visibleAt time.Duration // consistency + visibility-timeout gate
	deleted   bool
	receipts  int
	twin      *message // the injected duplicate stored under the same id, if any
}

// dedupEntry is one applied idempotency token and when it was recorded.
type dedupEntry struct {
	token string
	at    time.Duration
}

// Queue is one SQS queue bound to a simulated environment.
type Queue struct {
	env        *sim.Env
	name       string
	ep         sim.Endpoint // the request envelope; each queue is its own service partition
	visibility time.Duration
	retention  time.Duration

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
		env: env, name: name, ep: env.Endpoint(name, lane), visibility: DefaultVisibility, retention: DefaultRetention,
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

// SetVisibility overrides the visibility timeout (tests and ablations).
func (q *Queue) SetVisibility(d time.Duration) { q.visibility = d }

// SetRetention overrides the message retention period.
func (q *Queue) SetRetention(d time.Duration) { q.retention = d }

// SendMessage enqueues body and returns the message id.
func (q *Queue) SendMessage(body []byte) (string, error) {
	return q.SendMessageIdem(body, q.autoToken())
}

// SendMessageIdem is SendMessage with an explicit idempotency token: a
// retried send carrying a token the queue has already applied returns the
// original message id without enqueueing again (P3 uses "txn-uuid/seq"
// tokens so WAL resends after ambiguous faults stay exactly-once).
func (q *Queue) SendMessageIdem(body []byte, token string) (string, error) {
	if len(body) > MaxMessageSize {
		return "", fmt.Errorf("%w (%d bytes)", ErrMessageTooLarge, len(body))
	}
	return sim.Call(q.ep, func() (string, error) { return q.sendOnce(body, token) })
}

// sendOnce is one service attempt of a send. An ambiguous fault (applied)
// enqueues the message, records the token, and still reports the error.
func (q *Queue) sendOnce(body []byte, token string) (string, error) {
	ferr, applied := q.ep.Fault(sim.OpSQSSend)
	if ferr != nil && !applied {
		return "", ferr
	}
	q.ep.Exec(sim.OpSQSSend, len(body), 0)
	now := q.env.Now()
	q.mu.Lock()
	if ids, ok := q.dedupLocked(token); ok {
		q.mu.Unlock()
		return ids[0], ferr
	}
	id := q.enqueueLocked(body, now)
	q.rememberLocked(token, []string{id}, now)
	q.mu.Unlock()
	return id, ferr
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
// token covering the whole batch (see SendMessageIdem).
func (q *Queue) SendMessageBatchIdem(bodies [][]byte, token string) ([]string, error) {
	if len(bodies) > MaxBatchEntries {
		return nil, fmt.Errorf("%w (%d entries)", ErrBatchTooLarge, len(bodies))
	}
	payload := 0
	for _, body := range bodies {
		if len(body) > MaxMessageSize {
			return nil, fmt.Errorf("%w (%d bytes)", ErrMessageTooLarge, len(body))
		}
		payload += len(body)
	}
	if len(bodies) == 0 {
		return nil, nil
	}
	return sim.Call(q.ep, func() ([]string, error) { return q.sendBatchOnce(bodies, token, payload) })
}

// sendBatchOnce is one service attempt of a batch send (see sendOnce).
func (q *Queue) sendBatchOnce(bodies [][]byte, token string, payload int) ([]string, error) {
	ferr, applied := q.ep.Fault(sim.OpSQSSendBatch)
	if ferr != nil && !applied {
		return nil, ferr
	}
	q.ep.Exec(sim.OpSQSSendBatch, payload, len(bodies))
	now := q.env.Now()
	q.mu.Lock()
	if ids, ok := q.dedupLocked(token); ok {
		q.mu.Unlock()
		return ids, ferr
	}
	ids := make([]string, 0, len(bodies))
	for _, body := range bodies {
		ids = append(ids, q.enqueueLocked(body, now))
	}
	q.rememberLocked(token, ids, now)
	q.mu.Unlock()
	return ids, ferr
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
	return sim.Call(q.ep.For(ctx), func() ([]string, error) { return q.sendBatchEntriesOnce(entries, payload) })
}

// sendBatchEntriesOnce is one service attempt of a per-entry-token batch
// send (see sendBatchOnce); dedup is checked and recorded entry by entry.
func (q *Queue) sendBatchEntriesOnce(entries []BatchEntry, payload int) ([]string, error) {
	ferr, applied := q.ep.Fault(sim.OpSQSSendBatch)
	if ferr != nil && !applied {
		return nil, ferr
	}
	q.ep.Exec(sim.OpSQSSendBatch, payload, len(entries))
	now := q.env.Now()
	q.mu.Lock()
	ids := make([]string, 0, len(entries))
	for _, e := range entries {
		if prev, ok := q.dedupLocked(e.Token); ok {
			ids = append(ids, prev[0])
			continue
		}
		id := q.enqueueLocked(e.Body, now)
		q.rememberLocked(e.Token, []string{id}, now)
		ids = append(ids, id)
	}
	q.mu.Unlock()
	return ids, ferr
}

// ReceiveMessage returns up to max (at most 10) visible messages, making
// them invisible for the visibility timeout. An empty slice means the queue
// had nothing visible — the caller should poll again. The bodies are
// read-only views (see Message).
func (q *Queue) ReceiveMessage(max int) []Message {
	if max <= 0 {
		max = 1
	}
	max = min(max, 10)
	if ferr, _ := q.ep.Fault(sim.OpSQSReceive); ferr != nil {
		// A throttled poll surfaces as an empty page: ReceiveMessage's
		// contract is already "nothing visible, poll again", which is
		// exactly how callers must treat a transient receive failure. The
		// failed round-trip still costs a request.
		return nil
	}
	now := q.env.Now()
	q.mu.Lock()
	q.expireLocked(now)
	var out []Message
	// Best-effort ordering: start the scan at a pseudo-random offset so
	// consumers cannot rely on FIFO delivery.
	n := len(q.msgs)
	start := 0
	if n > 1 {
		start = q.env.Rand().Intn(n)
	}
	bytes := 0
	for i := 0; i < n && len(out) < max; i++ {
		m := q.msgs[(start+i)%n]
		if m.deleted || m.visibleAt > now {
			continue
		}
		m.visibleAt = now + q.visibility
		m.receipts++
		out = append(out, Message{
			ID:            m.id,
			ReceiptHandle: m.id + "#" + strconv.Itoa(m.receipts),
			Body:          m.body,
		})
		bytes += len(m.body)
	}
	q.mu.Unlock()
	q.ep.Exec(sim.OpSQSReceive, bytes, 0)
	return out
}

// deleteLocked marks the message a receipt handle names, and its duplicate
// if the service stored one, as deleted, and releases their body.
func (q *Queue) deleteLocked(receipt string) {
	id, _, _ := strings.Cut(receipt, "#")
	if m := q.byID[id]; m != nil {
		m.deleted, m.body = true, nil
		if m.twin != nil {
			m.twin.deleted, m.twin.body = true, nil
		}
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
	for aged < len(q.dedupAge) && now-q.dedupAge[aged].at > q.retention {
		delete(q.dedup, q.dedupAge[aged].token)
		aged++
	}
	clear(q.dedupAge[:aged]) // drop the token strings with the entries
	q.dedupAge = q.dedupAge[aged:]
	kept := q.msgs[:0]
	for _, m := range q.msgs {
		if m.deleted || now-m.sentAt > q.retention {
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

// Len reports the number of undeleted, unexpired messages (visible or not).
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
		if !m.deleted && m.receipts == 0 && now-m.sentAt <= q.retention {
			n++
		}
	}
	return n
}

// GCExpired forces a retention pass and reports how many messages it
// dropped. The service expires messages lazily on access; the cleaner daemon
// calls this per WAL shard so abandoned transactions on idle shards are
// garbage-collected even when no daemon happens to poll them.
func (q *Queue) GCExpired() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	before := len(q.msgs)
	q.expireLocked(q.env.Now())
	return before - len(q.msgs)
}
