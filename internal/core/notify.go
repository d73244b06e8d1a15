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
//
// A notice's slices, its items' attributes included, are valid only during
// the callback: the bus and the commit daemons reuse their memory. A
// subscriber may keep the strings; it copies anything else it keeps.
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
	subs  []func(CommitNotice) int64 // by subscription; nil once unsubscribed
	meter *sim.Meter
	built CommitNotice // publishCommit's notice, its slices reused under mu
}

// NewCommitBus returns an empty bus metering into m.
func NewCommitBus(m *sim.Meter) *CommitBus { return &CommitBus{meter: m} }

// Subscribe registers fn for every future notice and returns an unsubscribe
// function. fn runs under the bus lock (publication order is total); it must
// not publish or subscribe reentrantly.
func (b *CommitBus) Subscribe(fn func(CommitNotice) int64) func() {
	b.mu.Lock()
	id := len(b.subs)
	b.subs = append(b.subs, fn)
	b.mu.Unlock()
	return func() {
		b.mu.Lock()
		b.subs[id] = nil
		b.mu.Unlock()
	}
}

// TxnCommit attributes one committed transaction's writes for publication:
// the transaction uuid, the hex closure root its WAL header declared, and
// the put requests it produced. P2, which has no transaction uuid, publishes
// a single zero-uuid group. Reqs, like a notice's slices, is read only
// during the publication.
type TxnCommit struct {
	Txn    uuid.UUID
	Digest string
	Reqs   []sdb.PutRequest
}

// publishCommit builds the notice of one committed group, keeping each
// item attributed to the transaction that wrote it, in the bus's reused
// notice, numbers it and delivers it to every subscriber. A group with no
// items publishes nothing. Publishing with no subscribers builds nothing —
// the commit path pays nothing until an engine subscribes. Redelivered
// (idempotently re-committed) transactions may republish; invalidation is
// idempotent too, so the worst case is a spurious cache miss.
func (d *Deployment) publishCommit(groups []TxnCommit) {
	b := d.Commits
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	n := &b.built
	n.Txns, n.Digests, n.Items = n.Txns[:0], n.Digests[:0], n.Items[:0]
	items := 0
	for _, g := range groups {
		items += len(g.Reqs)
		if len(b.subs) == 0 {
			continue // nobody reads the notice: count it, build nothing
		}
		if g.Txn != (uuid.UUID{}) {
			n.Txns = append(n.Txns, g.Txn)
			n.Digests = append(n.Digests, g.Digest)
		}
		for _, r := range g.Reqs {
			n.Items = append(n.Items, NoticeItem{Txn: g.Txn, Name: r.Item, Attrs: r.Attrs})
		}
	}
	if items > 0 {
		b.seq++
		n.Seq, n.Epoch = b.seq, d.DB.Directory().Epoch()
		for _, fn := range b.subs {
			if fn != nil {
				fn(*n)
			}
		}
		b.meter.CountCommitNotice()
	}
	clear(n.Items) // let go of the writers' attributes
}
