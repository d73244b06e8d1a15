package sqs

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"passcloud/internal/sim"
)

func strictQueue(t *testing.T) *Queue {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Consistency = sim.Strict
	return New(sim.NewEnv(cfg), "wal")
}

func TestSendReceiveDelete(t *testing.T) {
	q := strictQueue(t)
	id, err := q.SendMessage([]byte("record"))
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("empty message id")
	}
	msgs := q.ReceiveMessage(10)
	if len(msgs) != 1 || !bytes.Equal(msgs[0].Body, []byte("record")) {
		t.Fatalf("received %v", msgs)
	}
	if err := q.DeleteMessage(msgs[0].ReceiptHandle); err != nil {
		t.Fatal(err)
	}
	q.Env().Clock().Advance(time.Minute)
	if msgs := q.ReceiveMessage(10); len(msgs) != 0 {
		t.Fatalf("deleted message redelivered: %v", msgs)
	}
}

func TestMessageSizeLimit(t *testing.T) {
	q := strictQueue(t)
	if _, err := q.SendMessage(make([]byte, MaxMessageSize+1)); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("err = %v", err)
	}
	if _, err := q.SendMessage(make([]byte, MaxMessageSize)); err != nil {
		t.Fatalf("exactly 8KB rejected: %v", err)
	}
}

func TestVisibilityTimeoutRedelivery(t *testing.T) {
	q := strictQueue(t)
	q.SetVisibility(10 * time.Second)
	q.SendMessage([]byte("m"))
	if got := q.ReceiveMessage(1); len(got) != 1 {
		t.Fatalf("first receive: %v", got)
	}
	// While invisible, nothing is delivered.
	if got := q.ReceiveMessage(1); len(got) != 0 {
		t.Fatalf("message delivered while invisible: %v", got)
	}
	// After the visibility timeout it reappears (at-least-once).
	q.Env().Clock().Advance(11 * time.Second)
	got := q.ReceiveMessage(1)
	if len(got) != 1 {
		t.Fatal("message lost after visibility timeout")
	}
	if got[0].ReceiptHandle == "" {
		t.Fatal("missing receipt handle")
	}
}

func TestAtLeastOnceEveryMessageSurvivesUntilDeleted(t *testing.T) {
	q := strictQueue(t)
	q.SetVisibility(time.Second)
	const n = 50
	sent := make(map[string]bool)
	for i := 0; i < n; i++ {
		id, err := q.SendMessage([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		sent[id] = true
	}
	seen := make(map[string]bool)
	for tries := 0; tries < 100 && len(seen) < n; tries++ {
		for _, m := range q.ReceiveMessage(10) {
			seen[m.ID] = true
			q.DeleteMessage(m.ReceiptHandle)
		}
		q.Env().Clock().Advance(2 * time.Second)
	}
	if len(seen) != n {
		t.Fatalf("saw %d of %d messages", len(seen), n)
	}
	for id := range seen {
		if !sent[id] {
			t.Fatalf("received unknown message %s", id)
		}
	}
}

func TestDuplicateDelivery(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Consistency = sim.Strict
	cfg.DupProb = 1 // always duplicate
	q := New(sim.NewEnv(cfg), "wal")
	q.SetVisibility(time.Millisecond)
	q.SendMessage([]byte("m"))
	count := 0
	for i := 0; i < 4; i++ {
		count += len(q.ReceiveMessage(10))
		q.Env().Clock().Advance(time.Second)
	}
	if count < 2 {
		t.Fatalf("expected duplicate delivery, saw %d", count)
	}
}

func TestRetentionExpiry(t *testing.T) {
	q := strictQueue(t)
	q.SendMessage([]byte("old"))
	q.Env().Clock().Advance(DefaultRetention + time.Hour)
	if got := q.ReceiveMessage(10); len(got) != 0 {
		t.Fatalf("expired message delivered: %v", got)
	}
	if q.Len() != 0 {
		t.Fatalf("queue length = %d after retention", q.Len())
	}
}

func TestReceiveCapsAtTen(t *testing.T) {
	q := strictQueue(t)
	for i := 0; i < 20; i++ {
		q.SendMessage([]byte{byte(i)})
	}
	if got := q.ReceiveMessage(25); len(got) > 10 {
		t.Fatalf("received %d messages, cap is 10", len(got))
	}
}

func TestBestEffortOrdering(t *testing.T) {
	// The queue does not guarantee FIFO; over many drains we should see at
	// least one out-of-order delivery.
	q := strictQueue(t)
	q.SetVisibility(time.Millisecond)
	outOfOrder := false
	for round := 0; round < 20 && !outOfOrder; round++ {
		for i := 0; i < 10; i++ {
			q.SendMessage([]byte{byte(i)})
		}
		var got []byte
		for len(got) < 10 {
			for _, m := range q.ReceiveMessage(10) {
				got = append(got, m.Body[0])
				q.DeleteMessage(m.ReceiptHandle)
			}
			q.Env().Clock().Advance(time.Second)
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				outOfOrder = true
			}
		}
	}
	if !outOfOrder {
		t.Fatal("delivery looks strictly FIFO; best-effort ordering not exercised")
	}
}

func TestDeleteByReceiptIsIdempotent(t *testing.T) {
	q := strictQueue(t)
	q.SendMessage([]byte("m"))
	m := q.ReceiveMessage(1)[0]
	if err := q.DeleteMessage(m.ReceiptHandle); err != nil {
		t.Fatal(err)
	}
	if err := q.DeleteMessage(m.ReceiptHandle); err != nil {
		t.Fatalf("second delete failed: %v", err)
	}
}

func TestBodyRoundTripProperty(t *testing.T) {
	q := strictQueue(t)
	q.SetVisibility(time.Millisecond)
	f := func(body []byte) bool {
		if len(body) > MaxMessageSize {
			body = body[:MaxMessageSize]
		}
		if _, err := q.SendMessage(body); err != nil {
			return false
		}
		for tries := 0; tries < 50; tries++ {
			for _, m := range q.ReceiveMessage(10) {
				q.DeleteMessage(m.ReceiptHandle)
				if bytes.Equal(m.Body, body) {
					return true
				}
			}
			q.Env().Clock().Advance(time.Second)
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSendCountsOps(t *testing.T) {
	q := strictQueue(t)
	q.SendMessage([]byte("m"))
	q.ReceiveMessage(1)
	u := q.Env().Meter().Usage()
	if u.OpsByKind["sqs.SendMessage"] != 1 || u.OpsByKind["sqs.ReceiveMessage"] != 1 {
		t.Fatalf("ops = %v", u.OpsByKind)
	}
}

func TestSendMessageBatchRoundTrip(t *testing.T) {
	q := strictQueue(t)
	bodies := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	ids, err := q.SendMessageBatch(bodies)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(bodies) {
		t.Fatalf("ids = %d, want %d", len(ids), len(bodies))
	}
	got := make(map[string]bool)
	for _, m := range q.ReceiveMessage(10) {
		got[string(m.Body)] = true
	}
	for _, b := range bodies {
		if !got[string(b)] {
			t.Fatalf("batched body %q not delivered", b)
		}
	}
	// One batch call is one billed request and one counted op.
	u := q.Env().Meter().Usage()
	if u.OpsByKind["sqs.SendMessageBatch"] != 1 {
		t.Fatalf("batch ops = %d, want 1", u.OpsByKind["sqs.SendMessageBatch"])
	}
	if u.OpsByKind["sqs.SendMessage"] != 0 {
		t.Fatal("batch send counted as entry-by-entry sends")
	}
}

func TestSendMessageBatchLimitsAreAtomic(t *testing.T) {
	q := strictQueue(t)
	// Too many entries: nothing may be enqueued.
	var eleven [][]byte
	for i := 0; i < MaxBatchEntries+1; i++ {
		eleven = append(eleven, []byte{byte(i)})
	}
	if _, err := q.SendMessageBatch(eleven); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("err = %v, want batch-too-large", err)
	}
	// One oversized entry: nothing may be enqueued.
	bodies := [][]byte{[]byte("ok"), make([]byte, MaxMessageSize+1)}
	if _, err := q.SendMessageBatch(bodies); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("err = %v, want message-too-large", err)
	}
	if q.Len() != 0 {
		t.Fatalf("failed batch enqueued %d messages", q.Len())
	}
	// Empty batch is a free no-op.
	if ids, err := q.SendMessageBatch(nil); err != nil || len(ids) != 0 {
		t.Fatalf("empty batch: ids=%v err=%v", ids, err)
	}
	if q.Env().Meter().Usage().TotalOps != 0 {
		t.Fatal("empty batch charged a request")
	}
}

func TestDeleteMessageBatch(t *testing.T) {
	q := strictQueue(t)
	var bodies [][]byte
	for i := 0; i < 6; i++ {
		bodies = append(bodies, []byte{byte(i)})
	}
	if _, err := q.SendMessageBatch(bodies); err != nil {
		t.Fatal(err)
	}
	msgs := q.ReceiveMessage(10)
	var receipts []string
	for _, m := range msgs {
		receipts = append(receipts, m.ReceiptHandle)
	}
	before := q.Env().Meter().Usage().TotalOps
	if err := q.DeleteMessageBatch(receipts); err != nil {
		t.Fatal(err)
	}
	if got := q.Env().Meter().Usage().TotalOps - before; got != 1 {
		t.Fatalf("batch delete billed %d requests, want 1", got)
	}
	// Re-deleting (including already-deleted receipts) succeeds, as on SQS.
	if err := q.DeleteMessageBatch(receipts[:2]); err != nil {
		t.Fatal(err)
	}
	q.Env().Clock().Advance(time.Minute)
	if got := q.ReceiveMessage(10); len(got) != 0 {
		t.Fatalf("batch-deleted messages redelivered: %v", got)
	}
	var many []string
	for i := 0; i <= MaxBatchEntries; i++ {
		many = append(many, "r")
	}
	if err := q.DeleteMessageBatch(many); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("err = %v, want batch-too-large", err)
	}
}

func TestSendMessageBatchDuplicatesPerEntry(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Consistency = sim.Strict
	cfg.DupProb = 1 // always duplicate
	q := New(sim.NewEnv(cfg), "wal")
	if _, err := q.SendMessageBatch([][]byte{[]byte("x"), []byte("y")}); err != nil {
		t.Fatal(err)
	}
	// At-least-once applies per entry: each message stored twice.
	if q.Len() != 4 {
		t.Fatalf("queue length = %d, want 4 (2 entries duplicated)", q.Len())
	}
}

func TestBatchIsCheaperThanSingles(t *testing.T) {
	// The point of the batch APIs: one full batch must cost less simulated
	// time and fewer billed requests than its entries sent one by one.
	single := strictQueue(t)
	t0 := single.Env().Now()
	for i := 0; i < MaxBatchEntries; i++ {
		if _, err := single.SendMessage([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	singleTime := single.Env().Now() - t0

	batched := strictQueue(t)
	var bodies [][]byte
	for i := 0; i < MaxBatchEntries; i++ {
		bodies = append(bodies, []byte{byte(i)})
	}
	t0 = batched.Env().Now()
	if _, err := batched.SendMessageBatch(bodies); err != nil {
		t.Fatal(err)
	}
	batchTime := batched.Env().Now() - t0

	if batchTime*3 > singleTime {
		t.Fatalf("batch %v not at least 3x faster than singles %v", batchTime, singleTime)
	}
	su := single.Env().Meter().Usage().Requests[sim.CostSQS]
	bu := batched.Env().Meter().Usage().Requests[sim.CostSQS]
	if bu != 1 || su != MaxBatchEntries {
		t.Fatalf("billed requests: batch=%d singles=%d", bu, su)
	}
}

func TestSendMessageBatchEntriesDedupsPerEntry(t *testing.T) {
	q := strictQueue(t)
	first := []BatchEntry{
		{Body: []byte("a"), Token: "txn1/0"},
		{Body: []byte("b"), Token: "txn1/1"},
	}
	ids, err := q.SendMessageBatchEntries(context.Background(), first)
	if err != nil || len(ids) != 2 {
		t.Fatalf("first batch: ids=%v err=%v", ids, err)
	}

	// A retry batch with different composition: one already-applied entry
	// plus a fresh one. The applied entry returns its original id without
	// enqueueing again; the fresh entry lands normally.
	retry := []BatchEntry{
		{Body: []byte("b"), Token: "txn1/1"},
		{Body: []byte("c"), Token: "txn2/0"},
	}
	ids2, err := q.SendMessageBatchEntries(context.Background(), retry)
	if err != nil || len(ids2) != 2 {
		t.Fatalf("retry batch: ids=%v err=%v", ids2, err)
	}
	if ids2[0] != ids[1] {
		t.Fatalf("deduped entry id = %s, want original %s", ids2[0], ids[1])
	}
	if q.Len() != 3 {
		t.Fatalf("queue length = %d, want 3 (a, b, c each once)", q.Len())
	}

	// Token-less entries enqueue unconditionally.
	if _, err := q.SendMessageBatchEntries(context.Background(), []BatchEntry{{Body: []byte("x")}, {Body: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 5 {
		t.Fatalf("queue length = %d, want 5", q.Len())
	}

	// Limits match the other batch calls.
	over := make([]BatchEntry, MaxBatchEntries+1)
	if _, err := q.SendMessageBatchEntries(context.Background(), over); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("oversized batch err = %v", err)
	}
	big := []BatchEntry{{Body: make([]byte, MaxMessageSize+1), Token: "t"}}
	if _, err := q.SendMessageBatchEntries(context.Background(), big); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("oversized entry err = %v", err)
	}
}

// TestDeletedBodyIsReleased: a deleted message's body — and its injected
// duplicate's — is dropped at delete time, not at the queue's next expiry
// pass, which a shard nobody polls any more never runs. A receiver's view of
// the body stays intact.
func TestDeletedBodyIsReleased(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Consistency = sim.Strict
	cfg.DupProb = 1 // every message has a twin
	q := New(sim.NewEnv(cfg), "wal")
	sent := [][]byte{[]byte("first body"), []byte("second body")}
	ids, err := q.SendMessageBatch(sent)
	if err != nil {
		t.Fatal(err)
	}
	msgs := q.ReceiveMessage(10)
	got := make(map[string][]byte)
	for _, m := range msgs {
		got[m.ID] = m.Body
	}
	if len(got) != len(ids) {
		t.Fatalf("received %d distinct messages, want %d", len(got), len(ids))
	}
	if err := q.DeleteMessage(msgs[0].ReceiptHandle); err != nil {
		t.Fatal(err)
	}
	var rest []string
	for _, m := range msgs[1:] {
		rest = append(rest, m.ReceiptHandle)
	}
	if err := q.DeleteMessageBatch(rest); err != nil {
		t.Fatal(err)
	}
	q.mu.Lock()
	for _, id := range ids {
		m := q.byID[id]
		if m == nil || m.twin == nil {
			t.Fatalf("%s: record or its twin already gone; the test needs them held", id)
		}
		if m.body != nil || m.twin.body != nil {
			t.Errorf("%s: the queue still references a deleted body", id)
		}
	}
	q.mu.Unlock()
	for i, id := range ids {
		if !bytes.Equal(got[id], sent[i]) {
			t.Errorf("%s: receiver reads %q, want %q", id, got[id], sent[i])
		}
	}
}
