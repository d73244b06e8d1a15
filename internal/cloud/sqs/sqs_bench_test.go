package sqs

import (
	"bytes"
	"testing"
	"time"

	"passcloud/internal/sim"
)

// benchQueue returns a strictly consistent manual-clock queue holding 10,000
// WAL-sized messages: the backlog a commit daemon works against.
func benchQueue(b *testing.B) (*Queue, [][]byte) {
	b.Helper()
	cfg := sim.DefaultConfig()
	cfg.Consistency = sim.Strict
	q := New(sim.NewEnv(cfg), "wal")
	batch := make([][]byte, MaxBatchEntries)
	for i := range batch {
		batch[i] = bytes.Repeat([]byte{byte(i)}, 8000)
	}
	for n := 0; n < 10_000; n += len(batch) {
		if _, err := q.SendMessageBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	return q, batch
}

// BenchmarkSendMessageBatch sends ten 8 KB messages per operation.
func BenchmarkSendMessageBatch(b *testing.B) {
	q, batch := benchQueue(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := q.SendMessageBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReceiveMessage receives a page of ten per operation; a
// nanosecond visibility timeout keeps all 10,000 messages receivable.
func BenchmarkReceiveMessage(b *testing.B) {
	q, _ := benchQueue(b)
	b.ReportAllocs()
	for b.Loop() {
		if page := q.Receive(nil, MaxBatchEntries, time.Nanosecond); len(page) != MaxBatchEntries {
			b.Fatalf("received %d messages", len(page))
		}
	}
}

// BenchmarkDeleteMessageBatch acknowledges ten messages per operation out
// of the 10,000-message backlog, sending and receiving the next ten off the
// clock.
func BenchmarkDeleteMessageBatch(b *testing.B) {
	q, batch := benchQueue(b)
	drain := func() []string {
		var receipts []string
		for _, m := range q.ReceiveMessage(MaxBatchEntries) {
			receipts = append(receipts, m.ReceiptHandle)
		}
		return receipts
	}
	b.ReportAllocs()
	for b.Loop() {
		b.StopTimer()
		if _, err := q.SendMessageBatch(batch); err != nil {
			b.Fatal(err)
		}
		receipts := drain()
		b.StartTimer()
		if err := q.DeleteMessageBatch(receipts); err != nil {
			b.Fatal(err)
		}
	}
}
