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

// combineBatch is one open batch for one home queue and tenant.
type combineBatch struct {
	queue   *sqs.Queue
	entries []sqs.BatchEntry
	done    chan struct{}
	err     error
}

// send ships a prepared transaction's entries with requests made with ctx,
// combined with whatever other entries of ctx's tenant open against the same
// queue within the window. All participants of one flush share its outcome.
func (c *combiner) send(ctx context.Context, pt *core.PreparedTxn) error {
	if c.window <= 0 {
		return shipEntries(ctx, pt.Queue, pt.Entries)
	}
	key := combineKey{pt.Queue.Name(), sim.TenantOf(ctx)}
	c.mu.Lock()
	b := c.open[key]
	lead := b == nil
	if lead {
		b = &combineBatch{queue: pt.Queue, done: make(chan struct{})}
		c.open[key] = b
	}
	b.entries = append(b.entries, pt.Entries...)
	c.mu.Unlock()

	if !lead {
		<-b.done
		return b.err
	}
	c.env.Clock().Sleep(c.window)
	c.mu.Lock()
	delete(c.open, key)
	entries := b.entries
	c.mu.Unlock()
	b.err = shipEntries(ctx, b.queue, entries)
	close(b.done)
	return b.err
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
