package core

import (
	"sync"
	"time"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/cloud/sqs"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// RunDaemon runs the commit-daemon pool until stop is closed (live mode) as a
// pipeline, so no worker ever waits on a database write:
//
//   - CommitWorkers receivers each take one page per subscribed WAL shard per
//     round and fold it (assemble), and keep receiving; a receiver whose
//     pages all came back short (the backlog is drained) sleeps the poll
//     interval first.
//   - Every transaction a receiver completes goes to one group former shared
//     by the pool, queued by the home domains of its items (both homes while
//     a reshard double-writes them). The former closes a group of whole
//     transactions as soon as they exactly fill whole 25-item
//     BatchPutAttributes calls there, or once a queue's oldest transaction
//     has waited the poll interval.
//   - Each group commits (commitGroup) on its own goroutine, at most
//     ProvConns groups at a time.
//   - Committed receipts, and those of redelivered packets of committed
//     transactions, collect per WAL shard and are acknowledged in full
//     10-entry DeleteMessageBatch calls; a partial batch goes once it has
//     waited the poll interval.
//
// It returns only after the receivers have stopped, the former and the
// acknowledgement buffers have been flushed and every group has finished, so
// nothing it started is left sleeping on the clock.
func (p *P3) RunDaemon(stop <-chan struct{}, poll time.Duration) {
	if poll <= 0 {
		poll = 2 * time.Second
	}
	pl := &pipeline{
		p:       p,
		poll:    poll,
		slots:   make(chan struct{}, p.opts.ProvConns),
		forming: make(map[sim.Homes]*homeQueue),
		acks:    make(map[int]*ackBuffer),
	}
	clock := p.dep.Env.Clock()
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var wg sync.WaitGroup
	workers := p.opts.CommitWorkers
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped() {
				// Recompute the subscription every round: a live reshard can
				// grow (or shrink) the WAL shard set under a running pool,
				// and the new queues must be polled without a restart.
				r := p.assemble(p.walSubscription(i, workers), 1)
				pl.acknowledge(r.acks)
				pl.form(r.ready)
				if r.short {
					clock.Sleep(poll)
				}
			}
		}()
	}
	// The timer: whatever has waited a poll interval in the former or an
	// acknowledgement buffer goes now. Anything that arrives while it sleeps
	// falls due no earlier than the wake-up, so it never sleeps past a
	// deadline.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stopped() {
			clock.SleepUntil(pl.flushDue(clock.Now()))
		}
	}()
	wg.Wait()
	pl.drain()
}

// pipeline is the state RunDaemon's goroutines share.
type pipeline struct {
	p     *P3
	poll  time.Duration
	slots chan struct{}  // one per group in flight
	work  sync.WaitGroup // groups and acknowledgement calls in flight

	mu      sync.Mutex
	forming map[sim.Homes]*homeQueue // ready transactions not yet in a group, by home domains
	acks    map[int]*ackBuffer       // committed receipts awaiting a full batch, by WAL shard
}

// homeQueue is one set of home domains' queue in the group former: the ready
// transactions whose first item is written there, oldest first, and how many
// of their items are.
type homeQueue struct {
	txns  []waiting
	items int
}

// waiting is one transaction in a former queue.
type waiting struct {
	st    *txnState
	at    time.Duration // when it reached the former
	items int           // its items written to the queue's home domains
}

// ackBuffer is one WAL shard's committed receipts awaiting acknowledgement.
type ackBuffer struct {
	receipts []shardReceipt
	since    time.Duration // when the oldest of them arrived
}

// form hands ready transactions to the former and starts every group they
// complete.
func (pl *pipeline) form(ready []*txnState) {
	if len(ready) == 0 {
		return
	}
	now := pl.p.dep.Env.Now()
	dir := pl.p.dep.DB.Directory()
	var groups [][]*txnState
	pl.mu.Lock()
	for _, st := range ready {
		var home sim.Homes // items with the same homes fill the same batches, on every domain they go to
		items := 0
		for i, req := range st.reqs {
			switch h := dir.Homes(req.Item[:uuid.StringLen]); {
			case i == 0:
				home, items = h, 1
			case h == home:
				items++
			}
		}
		q := pl.forming[home]
		if q == nil {
			q = &homeQueue{}
			pl.forming[home] = q
		}
		q.txns = append(q.txns, waiting{st: st, at: now, items: items})
		if q.items += items; q.items >= sdb.MaxBatchItems {
			if g := q.cut(); g != nil {
				groups = append(groups, g)
			}
		}
	}
	pl.mu.Unlock()
	for _, g := range groups {
		pl.start(g)
	}
}

// cut closes a group of whole transactions that exactly fills as many full
// batches as the queue's items can: oldest first, passing over any that
// would overflow them for younger ones that fit. When no such choice fills
// them exactly, it closes nothing, and the queue waits for the next arrival
// or the timer.
func (q *homeQueue) cut() []*txnState {
	room := q.items / sdb.MaxBatchItems * sdb.MaxBatchItems
	take := make([]bool, len(q.txns))
	for i, w := range q.txns {
		if w.items <= room {
			take[i] = true
			room -= w.items
		}
	}
	if room > 0 {
		return nil
	}
	var group []*txnState
	kept := q.txns[:0]
	for i, w := range q.txns {
		if take[i] {
			group = append(group, w.st)
			q.items -= w.items
		} else {
			kept = append(kept, w)
		}
	}
	clear(q.txns[len(kept):])
	q.txns = kept
	return group
}

// all empties the queue into one group.
func (q *homeQueue) all() []*txnState {
	group := make([]*txnState, len(q.txns))
	for i, w := range q.txns {
		group[i] = w.st
	}
	q.txns, q.items = nil, 0
	return group
}

// start commits a group on its own goroutine, which then hands its receipts
// to the acknowledgement buffers. With every slot taken it waits for one, so
// a pool whose groups fall behind stops pulling more from the WAL.
func (pl *pipeline) start(group []*txnState) {
	pl.slots <- struct{}{}
	pl.work.Add(1)
	go func() {
		defer pl.work.Done()
		receipts, _ := pl.p.commitGroup(group)
		<-pl.slots
		pl.acknowledge(receipts)
	}()
}

// acknowledge buffers receipts by WAL shard and sends every full batch.
func (pl *pipeline) acknowledge(receipts []shardReceipt) {
	if len(receipts) == 0 {
		return
	}
	now := pl.p.dep.Env.Now()
	var full [][]shardReceipt
	pl.mu.Lock()
	for _, r := range receipts {
		b := pl.acks[r.shard]
		if b == nil {
			b = &ackBuffer{}
			pl.acks[r.shard] = b
		}
		if len(b.receipts) == 0 {
			b.since = now
		}
		b.receipts = append(b.receipts, r)
		if len(b.receipts) == sqs.MaxBatchEntries {
			full = append(full, b.receipts)
			b.receipts = nil
		}
	}
	pl.mu.Unlock()
	for _, batch := range full {
		pl.send(batch)
	}
}

// send acknowledges one batch on its own goroutine.
func (pl *pipeline) send(batch []shardReceipt) {
	pl.work.Add(1)
	go func() {
		defer pl.work.Done()
		_ = pl.p.deleteReceiptPairs(batch)
	}()
}

// flushDue closes the groups and sends the partial acknowledgement batches
// whose oldest transaction or receipt has waited a poll interval by now, and
// returns when the next of them falls due.
func (pl *pipeline) flushDue(now time.Duration) (next time.Duration) {
	next = now + pl.poll
	var groups [][]*txnState
	var partial [][]shardReceipt
	pl.mu.Lock()
	for _, q := range pl.forming {
		if len(q.txns) == 0 {
			continue
		}
		if oldest := q.txns[0].at; now-oldest >= pl.poll {
			groups = append(groups, q.all())
		} else {
			next = min(next, oldest+pl.poll)
		}
	}
	for _, b := range pl.acks {
		if len(b.receipts) == 0 {
			continue
		}
		if now-b.since >= pl.poll {
			partial = append(partial, b.receipts)
			b.receipts = nil
		} else {
			next = min(next, b.since+pl.poll)
		}
	}
	pl.mu.Unlock()
	for _, g := range groups {
		pl.start(g)
	}
	for _, batch := range partial {
		pl.send(batch)
	}
	return next
}

// drain runs once the receivers and the timer have stopped: the former's
// last groups commit, every group finishes, and every buffered receipt is
// acknowledged.
func (pl *pipeline) drain() {
	for _, q := range pl.forming {
		if len(q.txns) > 0 {
			pl.start(q.all())
		}
	}
	pl.work.Wait()
	for _, b := range pl.acks {
		if len(b.receipts) > 0 {
			pl.send(b.receipts)
			b.receipts = nil
		}
	}
	pl.work.Wait()
}
