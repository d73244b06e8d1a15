package translog

import (
	"bytes"
	"slices"
	"strings"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/uuid"
)

// The sequencer: the commit-bus subscription that grows the tree, and the
// background daemon that periodically makes it durable.
//
// The bus delivers commits synchronously in publication order, under the
// bus lock, so ingestion must be cheap and must not touch the simulated
// services: Ingest only appends leaves (one SHA-256 per transaction) and
// defers all persistence to Checkpoint.

// Attach subscribes the log to the deployment's commit bus and returns the
// unsubscribe function. Every subsequent committed transaction becomes a
// leaf; notices without a transaction uuid (P2 commits) carry no history to
// log and are skipped.
func (l *Log) Attach(bus *core.CommitBus) func() {
	return bus.Subscribe(func(n core.CommitNotice) int64 {
		l.Ingest(n)
		return 0
	})
}

// Ingest folds one commit notice into the tree. Redelivered transactions
// (an idempotently re-committed group republishes) are deduplicated by txn
// uuid, so ingestion is idempotent like the commit path it observes.
func (l *Log) Ingest(n core.CommitNotice) {
	if len(n.Txns) == 0 {
		return
	}
	// Attribute the notice's items to their transactions with one stable
	// sort by (txn, name): each transaction's items become one run of a
	// single array, already in the leaf's canonical order (by name,
	// independent of put order).
	tagged := make([]taggedItem, len(n.Items))
	for i, it := range n.Items {
		tagged[i] = taggedItem{txn: it.Txn, item: LeafItem{Name: it.Name, Digest: ItemDigest(it.Attrs)}}
	}
	slices.SortStableFunc(tagged, func(a, b taggedItem) int {
		if c := bytes.Compare(a.txn[:], b.txn[:]); c != 0 {
			return c
		}
		return strings.Compare(a.item.Name, b.item.Name)
	})
	items := make([]LeafItem, len(tagged))
	for i, t := range tagged {
		items[i] = t.item
	}
	now := l.env.Now().Nanoseconds()

	l.mu.Lock()
	appended := 0
	for i, txn := range n.Txns {
		if _, dup := l.byTxn[txn]; dup {
			continue
		}
		lo, _ := slices.BinarySearchFunc(tagged, txn, func(t taggedItem, u uuid.UUID) int {
			return bytes.Compare(t.txn[:], u[:])
		})
		hi := lo
		for hi < len(tagged) && tagged[hi].txn == txn {
			hi++
		}
		lf := Leaf{
			Index:    len(l.leaves),
			Txn:      txn.String(),
			Epoch:    n.Epoch,
			SimNanos: now,
		}
		if hi > lo {
			lf.Items = items[lo:hi:hi] // nil, not empty, for a transaction with no items
		}
		if i < len(n.Digests) {
			lf.Closure = n.Digests[i]
		}
		l.byTxn[txn] = lf.Index
		l.leaves = append(l.leaves, lf)
		l.hashes = append(l.hashes, lf.Hash())
		appended++
	}
	if n.Seq > l.busSeq {
		l.busSeq = n.Seq
	}
	l.mu.Unlock()
	if appended > 0 {
		l.env.Meter().AddLogAppends(int64(appended))
	}
}

// taggedItem is a leaf item with the transaction that wrote it.
type taggedItem struct {
	txn  uuid.UUID
	item LeafItem
}

// Run is the sequencer daemon: it checkpoints every interval until stop is
// closed, then takes a final checkpoint so everything ingested is durable.
// Checkpoint failures (an injected fault, a simulated crash) are absorbed:
// a failed checkpoint leaves a consistent durable prefix and every stage is
// idempotent, so the next tick resumes from the cursors.
func (l *Log) Run(stop <-chan struct{}, every time.Duration) {
	for {
		select {
		case <-stop:
			_, _ = l.Checkpoint()
			return
		default:
		}
		l.env.Clock().Sleep(every)
		_, _ = l.Checkpoint()
	}
}
