package core

import (
	"sync"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// CommitNotice describes one committed transaction group to subscribers: the
// WAL already sees every transaction, so the commit daemons piggyback this
// notification on the path that writes the provenance items. Subscribed query
// caches use it to invalidate exactly the observations the commit touched.
type CommitNotice struct {
	// Seq is the bus-assigned publication sequence number; the transparency
	// log checkpoints the last one it sequenced.
	Seq int64
	// Txns lists the transaction uuids the group committed.
	Txns []uuid.UUID
	// Digests carries, parallel to Txns, the hex closure root each
	// transaction's WAL header declared ("" when the writer supplied none).
	// The transparency log folds it into the leaf so a reader's inclusion
	// proof binds the closure the writer committed to, not just the items.
	Digests []string
	// Items lists the provenance items written, with their attributes.
	Items []NoticeItem
	// Epoch is the directory epoch the items were routed under.
	Epoch int
}

// NoticeItem is one committed provenance item in a CommitNotice.
type NoticeItem struct {
	// Txn is the transaction that wrote the item (zero for P2, which has no
	// transaction uuid); the transparency log uses it to attribute items to
	// leaves when a batched group commits many transactions in one notice.
	Txn uuid.UUID
	// Name is the item name (a uuid_version ref string).
	Name string
	// Attrs are the attributes written (spilled values appear as markers,
	// exactly as stored).
	Attrs []sdb.Attr
}

// CommitBus fans committed-transaction notices out to subscribers,
// synchronously and in publication order. Delivery is in-process and
// deterministic: by the time a commit daemon's BulkPut returns to its
// caller, every subscriber has applied the notice (the simulated analogue of
// an invalidation channel that commits strictly before the write is
// acknowledged). Subscribers return how many cached entries they dropped so
// the meter can account invalidations fleet-wide.
type CommitBus struct {
	mu    sync.Mutex
	seq   int64
	next  int
	subs  map[int]func(CommitNotice) int64
	meter *sim.Meter
}

// NewCommitBus returns an empty bus metering into m (nil is allowed).
func NewCommitBus(m *sim.Meter) *CommitBus {
	return &CommitBus{subs: make(map[int]func(CommitNotice) int64), meter: m}
}

// Subscribe registers fn for every future notice and returns an unsubscribe
// function. fn runs under the bus lock (publication order is total); it must
// not publish or subscribe reentrantly.
func (b *CommitBus) Subscribe(fn func(CommitNotice) int64) func() {
	b.mu.Lock()
	id := b.next
	b.next++
	b.subs[id] = fn
	b.mu.Unlock()
	return func() {
		b.mu.Lock()
		delete(b.subs, id)
		b.mu.Unlock()
	}
}

// Publish assigns the notice a sequence number and delivers it to every
// subscriber. Publishing with no subscribers is free — the commit path pays
// nothing until an engine subscribes. Redelivered (idempotently re-committed)
// transactions may republish; invalidation is idempotent too, so the worst
// case is a spurious cache miss.
func (b *CommitBus) Publish(n CommitNotice) {
	b.mu.Lock()
	b.seq++
	n.Seq = b.seq
	for _, fn := range b.subs {
		fn(n)
	}
	b.mu.Unlock()
	if b.meter != nil {
		b.meter.CountCommitNotice()
	}
}

// TxnCommit attributes one committed transaction's writes for publication:
// the transaction uuid, the hex closure root its WAL header declared, and
// the put requests it produced. P2, which has no transaction uuid, publishes
// a single zero-uuid group.
type TxnCommit struct {
	Txn    uuid.UUID
	Digest string
	Reqs   []sdb.PutRequest
}

// publishCommit builds and publishes a notice for one committed group,
// keeping each item attributed to the transaction that wrote it.
func (d *Deployment) publishCommit(groups []TxnCommit) {
	if d.Commits == nil {
		return
	}
	n := 0
	for _, g := range groups {
		n += len(g.Reqs)
	}
	var (
		txns    = make([]uuid.UUID, 0, len(groups))
		digests = make([]string, 0, len(groups))
		items   = make([]NoticeItem, 0, n)
	)
	for _, g := range groups {
		if g.Txn != (uuid.UUID{}) {
			txns = append(txns, g.Txn)
			digests = append(digests, g.Digest)
		}
		for _, r := range g.Reqs {
			items = append(items, NoticeItem{
				Txn:   g.Txn,
				Name:  r.Item,
				Attrs: r.Attrs,
			})
		}
	}
	if len(items) == 0 {
		return
	}
	d.Commits.Publish(CommitNotice{
		Txns:    txns,
		Digests: digests,
		Items:   items,
		Epoch:   d.DB.Directory().Epoch(),
	})
}
