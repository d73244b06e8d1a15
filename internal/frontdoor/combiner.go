package frontdoor

import (
	"context"
	"slices"
	"sync"
	"time"

	"passcloud/internal/cloud/sqs"
	"passcloud/internal/core"
	"passcloud/internal/sim"
)

// combiner packs the WAL entries of one tenant's concurrent small commits
// bound for the same home queue into full SendMessageBatch calls. The first
// caller to open a batch becomes its leader: it holds the batch open for the
// combine window (virtual time), then ships everything that accumulated and
// wakes the followers with the shared result. A batch holds one tenant's
// entries only, so each flush request is made for one tenant and its
// attempts run against that tenant's retry state alone.
type combiner struct {
	env    *sim.Env
	window time.Duration // <= 0 disables combining

	mu   sync.Mutex
	open map[combineKey]*combineBatch
}

// combineKey names one open batch: a home queue and the tenant it is for.
type combineKey struct{ queue, tenant string }

// combineBatch is one open batch for one home queue and tenant. done is
// made when a follower joins; a batch its leader shipped alone is reused by
// a later leader.
type combineBatch struct {
	queue   *sqs.Queue
	entries []sqs.BatchEntry
	done    chan struct{}
	err     error
}

var batches = sync.Pool{New: func() any { return new(combineBatch) }}

// send ships a prepared transaction's entries with requests made with ctx,
// combined with whatever other entries of ctx's tenant open against the same
// queue within the window. All participants of one flush share its outcome.
func (c *combiner) send(ctx context.Context, pt *core.PreparedTxn) error {
	if c.window <= 0 {
		return shipEntries(ctx, pt.Queue, pt.Entries)
	}
	key := combineKey{pt.Queue.Name(), sim.TenantOf(ctx)}
	c.mu.Lock()
	if b := c.open[key]; b != nil {
		if b.done == nil {
			b.done = make(chan struct{})
		}
		b.entries = append(b.entries, pt.Entries...)
		c.mu.Unlock()
		<-b.done
		return b.err
	}
	b := batches.Get().(*combineBatch)
	b.queue, b.entries = pt.Queue, append(b.entries[:0], pt.Entries...)
	c.open[key] = b
	c.mu.Unlock()

	c.env.Clock().Sleep(c.window)
	c.mu.Lock()
	delete(c.open, key)
	done := b.done
	c.mu.Unlock()
	err := shipEntries(ctx, b.queue, b.entries)
	if done != nil {
		b.err = err
		close(done)
		return err
	}
	batches.Put(b)
	return err
}

// shipEntries sends entries in ≤10-entry batch calls, stopping at the first
// failure. Each call is retried at its endpoint; per-entry dedup keeps a
// retry after an ambiguous fault exactly-once.
func shipEntries(ctx context.Context, q *sqs.Queue, entries []sqs.BatchEntry) error {
	for batch := range slices.Chunk(entries, sqs.MaxBatchEntries) {
		if _, err := q.SendMessageBatchEntries(ctx, batch); err != nil {
			return err
		}
	}
	return nil
}
