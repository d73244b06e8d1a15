package sqs

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"passcloud/internal/resilient"
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
	if err := q.DeleteMessageBatch([]string{msgs[0].ReceiptHandle}); err != nil {
		t.Fatal(err)
	}
	q.env.Clock().Advance(time.Minute)
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
	q.SendMessage([]byte("m"))
	if got := q.Receive(nil, 1, 10*time.Second); len(got) != 1 {
		t.Fatalf("first receive: %v", got)
	}
	// While invisible, nothing is delivered.
	if got := q.Receive(nil, 1, 10*time.Second); len(got) != 0 {
		t.Fatalf("message delivered while invisible: %v", got)
	}
	// After the visibility timeout it reappears (at-least-once).
	q.env.Clock().Advance(11 * time.Second)
	got := q.Receive(nil, 1, 10*time.Second)
	if len(got) != 1 {
		t.Fatal("message lost after visibility timeout")
	}
	if got[0].ReceiptHandle == "" {
		t.Fatal("missing receipt handle")
	}
}

func TestAtLeastOnceEveryMessageSurvivesUntilDeleted(t *testing.T) {
	q := strictQueue(t)
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
		for _, m := range q.Receive(nil, 10, time.Second) {
			seen[m.ID] = true
			q.DeleteMessageBatch([]string{m.ReceiptHandle})
		}
		q.env.Clock().Advance(2 * time.Second)
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
	q.SendMessage([]byte("m"))
	count := 0
	for i := 0; i < 4; i++ {
		count += len(q.Receive(nil, 10, time.Millisecond))
		q.env.Clock().Advance(time.Second)
	}
	if count < 2 {
		t.Fatalf("expected duplicate delivery, saw %d", count)
	}
}

func TestRetentionExpiry(t *testing.T) {
	q := strictQueue(t)
	q.SendMessage([]byte("old"))
	q.env.Clock().Advance(Retention + time.Hour)
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
	outOfOrder := false
	for round := 0; round < 20 && !outOfOrder; round++ {
		for i := 0; i < 10; i++ {
			q.SendMessage([]byte{byte(i)})
		}
		var got []byte
		for len(got) < 10 {
			for _, m := range q.Receive(nil, 10, time.Millisecond) {
				got = append(got, m.Body[0])
				q.DeleteMessageBatch([]string{m.ReceiptHandle})
			}
			q.env.Clock().Advance(time.Second)
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
	if err := q.DeleteMessageBatch([]string{m.ReceiptHandle}); err != nil {
		t.Fatal(err)
	}
	if err := q.DeleteMessageBatch([]string{m.ReceiptHandle}); err != nil {
		t.Fatalf("second delete failed: %v", err)
	}
}

func TestBodyRoundTripProperty(t *testing.T) {
	q := strictQueue(t)
	f := func(body []byte) bool {
		if len(body) > MaxMessageSize {
			body = body[:MaxMessageSize]
		}
		if _, err := q.SendMessage(body); err != nil {
			return false
		}
		for tries := 0; tries < 50; tries++ {
			for _, m := range q.Receive(nil, 10, time.Millisecond) {
				q.DeleteMessageBatch([]string{m.ReceiptHandle})
				if bytes.Equal(m.Body, body) {
					return true
				}
			}
			q.env.Clock().Advance(time.Second)
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
	u := q.env.Meter().Usage()
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
	u := q.env.Meter().Usage()
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
	if q.env.Meter().Usage().TotalOps != 0 {
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
	before := q.env.Meter().Usage().TotalOps
	if err := q.DeleteMessageBatch(receipts); err != nil {
		t.Fatal(err)
	}
	if got := q.env.Meter().Usage().TotalOps - before; got != 1 {
		t.Fatalf("batch delete billed %d requests, want 1", got)
	}
	// Re-deleting (including already-deleted receipts) succeeds, as on SQS.
	if err := q.DeleteMessageBatch(receipts[:2]); err != nil {
		t.Fatal(err)
	}
	q.env.Clock().Advance(time.Minute)
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
	t0 := single.env.Now()
	for i := 0; i < MaxBatchEntries; i++ {
		if _, err := single.SendMessage([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	singleTime := single.env.Now() - t0

	batched := strictQueue(t)
	var bodies [][]byte
	for i := 0; i < MaxBatchEntries; i++ {
		bodies = append(bodies, []byte{byte(i)})
	}
	t0 = batched.env.Now()
	if _, err := batched.SendMessageBatch(bodies); err != nil {
		t.Fatal(err)
	}
	batchTime := batched.env.Now() - t0

	if batchTime*3 > singleTime {
		t.Fatalf("batch %v not at least 3x faster than singles %v", batchTime, singleTime)
	}
	su := single.env.Meter().Usage().Requests[sim.CostSQS]
	bu := batched.env.Meter().Usage().Requests[sim.CostSQS]
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
	if err := q.DeleteMessageBatch([]string{msgs[0].ReceiptHandle}); err != nil {
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

// TestBodyRecycledOnlyWhenEveryDeliveryIsAcknowledged: a NewBody block goes
// back to the pool only once its message is deleted, every delivery of it
// has had its own receipt deleted, and no twin shares it. Until then every
// receiver's view keeps its bytes, however many blocks later sends fill.
func TestBodyRecycledOnlyWhenEveryDeliveryIsAcknowledged(t *testing.T) {
	want := bytes.Repeat([]byte("provenance"), 40)
	// churn cycles blocks of every class through a queue of its own, each
	// filled to its cap and recycled, as a busy WAL does.
	churn := func(t *testing.T) {
		t.Helper()
		q := strictQueue(t)
		for i := 0; i < 200; i++ {
			body := NewBody(minBlock << (i % len(blocks)))
			body = append(body, bytes.Repeat([]byte{0xEE}, cap(body))...)
			if _, err := q.SendMessage(body); err != nil {
				t.Fatal(err)
			}
			for _, m := range q.ReceiveMessage(10) {
				if err := q.DeleteMessageBatch([]string{m.ReceiptHandle}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	intact := func(t *testing.T, views ...Message) {
		t.Helper()
		for _, m := range views {
			if !bytes.Equal(m.Body, want) {
				t.Fatalf("%s: a receiver's view was overwritten: %q...", m.ReceiptHandle, m.Body[:min(len(m.Body), 16)])
			}
		}
	}
	// twice sends one body and receives it twice, the visibility timeout
	// lapsing between the receives.
	twice := func(t *testing.T, q *Queue) (string, Message, Message) {
		t.Helper()
		id, err := q.SendMessage(append(NewBody(len(want)), want...))
		if err != nil {
			t.Fatal(err)
		}
		first := q.Receive(nil, 1, time.Second)
		q.env.Clock().Advance(2 * time.Second)
		second := q.Receive(nil, 1, time.Second)
		if len(first) != 1 || len(second) != 1 || first[0].ReceiptHandle == second[0].ReceiptHandle {
			t.Fatalf("want two deliveries of %s, got %v and %v", id, first, second)
		}
		return id, first[0], second[0]
	}
	held := func(q *Queue, id string) bool {
		q.mu.Lock()
		defer q.mu.Unlock()
		m := q.byID[id]
		return m != nil && m.body != nil
	}

	t.Run("one of two receipts deleted", func(t *testing.T) {
		q := strictQueue(t)
		id, first, second := twice(t, q)
		if err := q.DeleteMessageBatch([]string{second.ReceiptHandle}); err != nil {
			t.Fatal(err)
		}
		churn(t)
		intact(t, first, second)
		if !held(q, id) {
			t.Fatal("a deleted record with a delivery unacknowledged let its body go before the expiry pass")
		}
		if err := q.DeleteMessageBatch([]string{first.ReceiptHandle}); err != nil {
			t.Fatal(err)
		}
		if held(q, id) {
			t.Fatal("every delivery acknowledged, and the record still holds its body")
		}
	})

	t.Run("twin", func(t *testing.T) {
		cfg := sim.DefaultConfig()
		cfg.Consistency = sim.Strict
		cfg.DupProb = 1
		q := New(sim.NewEnv(cfg), "wal")
		if _, err := q.SendMessage(append(NewBody(len(want)), want...)); err != nil {
			t.Fatal(err)
		}
		views := q.ReceiveMessage(10)
		if len(views) != 2 || views[0].ReceiptHandle != views[1].ReceiptHandle {
			t.Fatalf("want the message and its twin under one receipt number, got %v", views)
		}
		// The twin's receipt names the same delivery number as the
		// original's: an acknowledgement cannot tell them apart.
		if err := q.DeleteMessageBatch([]string{views[0].ReceiptHandle}); err != nil {
			t.Fatal(err)
		}
		churn(t)
		intact(t, views...)
	})

	t.Run("delete retried after an ambiguous fault", func(t *testing.T) {
		for trial := 0; trial < 20; trial++ {
			q := strictQueue(t)
			q.env.SetRetry(resilient.New(q.env, resilient.Policy{}))
			id, first, second := twice(t, q)
			// The first attempt deletes and reports a fault; the retry
			// deletes the same receipt again.
			q.env.InstallFaults(sim.FaultPlan{q.Name(): {
				Prob: 1, ApplyProb: 1, Ops: []string{"sqs.DeleteMessageBatch"}, Until: q.env.Now() + time.Millisecond,
			}})
			if err := q.DeleteMessageBatch([]string{first.ReceiptHandle, first.ReceiptHandle}); err != nil {
				t.Fatal(err)
			}
			if q.env.Meter().Usage().Faults == 0 {
				t.Fatal("no fault was injected")
			}
			churn(t)
			intact(t, first, second)
			// The second receipt releases the block, once: a block pooled
			// twice comes out of two NewBody calls.
			if err := q.DeleteMessageBatch([]string{second.ReceiptHandle, second.ReceiptHandle}); err != nil {
				t.Fatal(err)
			}
			if held(q, id) {
				t.Fatal("every delivery acknowledged, and the record still holds its body")
			}
			if a, b := NewBody(len(want)), NewBody(len(want)); &a[:1][0] == &b[:1][0] {
				t.Fatal("two NewBody calls returned one block: a body was recycled twice")
			}
		}
	})

	t.Run("deleted record expires", func(t *testing.T) {
		q := strictQueue(t)
		id, first, second := twice(t, q)
		if err := q.DeleteMessageBatch([]string{first.ReceiptHandle}); err != nil {
			t.Fatal(err)
		}
		if !held(q, id) {
			t.Fatal("the record let its body go with a delivery unacknowledged")
		}
		if n := q.Len(); n != 0 {
			t.Fatalf("the expiry pass left %d records, want the deleted one gone", n)
		}
		q.mu.Lock()
		left := len(q.msgs) + len(q.byID)
		q.mu.Unlock()
		if left != 0 {
			t.Fatalf("the queue still holds %d references to the deleted record", left)
		}
		// Dropped to the collector, not the pool: a late acknowledgement
		// finds nothing, and the views stay as they were.
		if err := q.DeleteMessageBatch([]string{second.ReceiptHandle}); err != nil {
			t.Fatal(err)
		}
		churn(t)
		intact(t, first, second)
	})

	t.Run("size classes", func(t *testing.T) {
		// A WAL packet of 450 B takes a 512 B block, a full chunk 8 KB.
		for n, want := range map[int]int{
			0: minBlock, 450: minBlock, minBlock: minBlock, minBlock + 1: 2 * minBlock,
			4 << 10: 4 << 10, 4<<10 + 1: MaxMessageSize, MaxMessageSize: MaxMessageSize, MaxMessageSize + 1: MaxMessageSize,
		} {
			if got := cap(NewBody(n)); got != want {
				t.Errorf("NewBody(%d) has cap %d, want %d", n, got, want)
			}
		}
		// A recycled block goes back to its own class only: no other
		// class ever hands it out.
		q := strictQueue(t)
		body := append(NewBody(450), want...)
		if _, err := q.SendMessage(body); err != nil {
			t.Fatal(err)
		}
		for _, m := range q.ReceiveMessage(10) {
			if err := q.DeleteMessageBatch([]string{m.ReceiptHandle}); err != nil {
				t.Fatal(err)
			}
		}
		for c := 1; c < len(blocks); c++ {
			for i := 0; i < 10; i++ {
				if b := NewBody(minBlock << c); &b[:1][0] == &body[:1][0] {
					t.Fatalf("the %d-byte class handed out a recycled %d-byte block", minBlock<<c, cap(body))
				}
			}
		}
	})
}

// TestReuseAllocations pins the queue's reuse sites: a receive into last
// round's page allocates only the receipt handles it mints (a string and,
// past the 99th delivery, its number), not the page; and NewBody hands a
// block back out of its class's pool without allocating.
func TestReuseAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	q := strictQueue(t)
	for i := 0; i < MaxBatchEntries; i++ {
		if _, err := q.SendMessage(append(NewBody(450), "packet"...)); err != nil {
			t.Fatal(err)
		}
	}
	// A nanosecond visibility keeps every message receivable on the next
	// call, whose own service time moves the clock past it.
	page := q.Receive(nil, MaxBatchEntries, time.Nanosecond)
	if got := testing.AllocsPerRun(100, func() {
		page = q.Receive(page[:0], MaxBatchEntries, time.Nanosecond)
	}); len(page) != MaxBatchEntries || got > 2*MaxBatchEntries {
		t.Errorf("a receive of %d into a reused page allocates %v times, want at most %d", len(page), got, 2*MaxBatchEntries)
	}
	if got := testing.AllocsPerRun(100, func() {
		b := NewBody(450)
		blocks[blockClass(cap(b))].Put(unsafe.SliceData(b))
	}); got != 0 {
		t.Errorf("NewBody of a pooled class allocates %v times, want 0", got)
	}
}
