package core

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"passcloud/internal/cloud/sqs"
	"passcloud/internal/sim"
)

// drain receives from dep's first WAL shard, granting the WAL's visibility,
// until a receive comes back empty.
func drain(dep *Deployment) []sqs.Message {
	var out []sqs.Message
	for {
		page := dep.WAL.Shard(0).Receive(nil, 10, dep.WAL.Visibility())
		if len(page) == 0 {
			return out
		}
		out = append(out, page...)
	}
}

func copies(dep *Deployment) int64 { return dep.Env.Meter().Usage().OpsByKind["s3.COPY"] }

// inflightTxn logs one multi-packet transaction and folds all of its
// packets, leaving it ready — in flight — and not yet committed.
func inflightTxn(t *testing.T) (*Deployment, *P3, []*txnState) {
	t.Helper()
	dep := newDep(t, sim.Strict)
	dep.WAL.SetVisibility(time.Second)
	p := NewP3(dep, Options{ChunkSize: 256})
	objs, bundles := poolTxns(3, 1, 6)
	if err := p.Commit(objs[0], bundles[0]); err != nil {
		t.Fatal(err)
	}
	first := drain(dep)
	if len(first) < 3 {
		t.Fatalf("transaction logged as %d packets, want several", len(first))
	}
	ready, acks, held := p.foldMessages(0, first)
	if len(ready) != 1 || len(acks) != 0 || held != 0 {
		t.Fatalf("first delivery: %d ready, %d acks, %d held", len(ready), len(acks), held)
	}
	return dep, p, ready
}

// TestP3RedeliveryWhileInFlight is the double-commit regression: packets
// whose visibility timeout lapses while their transaction's own group
// commit is still running must not assemble the transaction a second time.
func TestP3RedeliveryWhileInFlight(t *testing.T) {
	dep, p, ready := inflightTxn(t)
	st := ready[0]
	packets := len(st.receipts) + len(st.heads)

	// The group commit "runs" for longer than the visibility timeout: every
	// packet is redelivered, twice, before the transaction is marked
	// committed.
	for round := 0; round < 2; round++ {
		dep.Env.Clock().Advance(2 * time.Second)
		again := drain(dep)
		if len(again) != packets {
			t.Fatalf("redelivered %d of %d packets", len(again), packets)
		}
		rebuilt, acks, held := p.foldMessages(0, again)
		if len(rebuilt) != 0 || len(acks) != 0 || held != packets {
			t.Fatalf("redelivery of an in-flight transaction: %d ready, %d acks, %d held; want 0, 0, %d", len(rebuilt), len(acks), held, packets)
		}
	}
	// Every delivery's receipt is kept for the cleanup.
	got := packets
	for _, rs := range st.redelivered {
		got += len(rs)
	}
	if got != 3*packets {
		t.Fatalf("in-flight transaction holds %d receipts, want %d", got, 3*packets)
	}
	// A daemon that finds only such redeliveries has made no progress.
	dep.Env.Clock().Advance(2 * time.Second)
	if progress, err := p.CommitOnce(); progress || err != nil {
		t.Fatalf("a round of nothing but held redeliveries: progress %v, err %v", progress, err)
	}
	if n := p.PendingTxns(); n != 1 {
		t.Fatalf("PendingTxns = %d while in flight, want 1", n)
	}

	if err := p.commit(ready, nil); err != nil {
		t.Fatal(err)
	}
	if n := copies(dep); n != 1 {
		t.Fatalf("%d COPYs for one transaction", n)
	}
	if n := dep.WAL.Len(); n != 0 {
		t.Fatalf("WAL holds %d messages after the commit", n)
	}
	if n := p.PendingTxns(); n != 0 {
		t.Fatalf("PendingTxns = %d after the commit", n)
	}
}

// TestP3FailedGroupCommitReopensAssembly: a group commit that returns
// without committing a transaction must drop its in-flight entry, or
// redelivery could never retry it.
func TestP3FailedGroupCommitReopensAssembly(t *testing.T) {
	for _, point := range daemonCrashPoints {
		dep, p, ready := inflightTxn(t)
		dep.Env.InstallFaults(nil).CrashAt(point, 0)
		if err := p.commit(ready, nil); !errors.Is(err, sim.ErrCrashed) {
			t.Fatalf("crash point %s: err = %v", point, err)
		}
		if n := p.PendingTxns(); n != 0 {
			t.Fatalf("crash point %s: %d transactions still in flight after the daemon died", point, n)
		}
		dep.Env.Clock().Advance(2 * time.Second)
		if err := p.Settle(); err != nil {
			t.Fatal(err)
		}
		if n := dep.WAL.Len(); n != 0 {
			t.Fatalf("crash point %s: WAL holds %d messages after recovery", point, n)
		}
		if got, want := dep.DB.ItemCount(), 6; got != want {
			t.Fatalf("crash point %s: items = %d, want %d", point, got, want)
		}
	}
}

// TestP3GroupCommitOutlastsVisibility drains a WAL whose visibility timeout
// is far shorter than a group commit with a pool of daemons that all poll
// the one shard: every transaction is copied into place exactly once.
func TestP3GroupCommitOutlastsVisibility(t *testing.T) {
	dep := newDep(t, sim.Strict)
	dep.WAL.SetVisibility(500 * time.Millisecond) // one BatchPutAttributes takes seconds
	p := NewP3(dep, Options{CommitWorkers: 4, ChunkSize: 512})
	const txns, perTxn = 48, 8
	objs, bundles := poolTxns(11, txns, perTxn)
	for i := range objs {
		if err := p.Commit(objs[i], bundles[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Settle(); err != nil {
		t.Fatal(err)
	}
	if n := copies(dep); n != txns {
		t.Fatalf("%d COPYs for %d transactions", n, txns)
	}
	if got, want := dep.DB.ItemCount(), txns*perTxn; got != want {
		t.Fatalf("items = %d, want %d", got, want)
	}
	if n := dep.WAL.Len(); n != 0 {
		t.Fatalf("WAL holds %d messages after settle", n)
	}
	if n := p.PendingTxns(); n != 0 {
		t.Fatalf("%d transactions still pending", n)
	}
	if !redelivered(dep) {
		t.Fatal("no packet was delivered twice: the visibility timeout never lapsed")
	}
}

// TestP3AcknowledgesEveryRedeliveredReceipt: a transaction whose packets
// are redelivered twice while its group commit runs acknowledges all three
// deliveries of every packet when the commit ends, so the queue can recycle
// each body; a message's receipts stay in delivery order, the header's last.
func TestP3AcknowledgesEveryRedeliveredReceipt(t *testing.T) {
	dep, p, ready := inflightTxn(t)
	st := ready[0]
	for round := 0; round < 2; round++ {
		dep.Env.Clock().Advance(2 * time.Second)
		p.foldMessages(0, drain(dep))
	}
	byMessage := map[string][]string{}
	pairs := p.endInflight(st, true)
	for _, r := range pairs {
		id, _, _ := strings.Cut(r.receipt, "#")
		byMessage[id] = append(byMessage[id], r.receipt)
	}
	for id, rs := range byMessage {
		if want := []string{id + "#1", id + "#2", id + "#3"}; !slices.Equal(rs, want) {
			t.Errorf("message %s acknowledged by %v, want %v", id, rs, want)
		}
	}
	if last := pairs[len(pairs)-3:]; !last[0].head || !strings.HasPrefix(last[0].receipt, st.headID+"#") {
		t.Errorf("cleanup ends %v, want the header %s's three receipts", last, st.headID)
	}
}

// TestP3RedeliveredReceiptOrderIsSeeded: the receipts of packets redelivered
// while their transaction was in flight are acknowledged after the first
// deliveries', in message-id order, and the header packet's come last — a
// cleanup that dies after n receipts leaves the same ones unacknowledged on
// every run of a seed, the header among them.
func TestP3RedeliveredReceiptOrderIsSeeded(t *testing.T) {
	var head string
	run := func() []string {
		dep, p, ready := inflightTxn(t)
		dep.Env.Clock().Advance(2 * time.Second)
		p.foldMessages(0, drain(dep))
		head = ready[0].headID
		var receipts []string
		for _, r := range p.endInflight(ready[0], true) {
			receipts = append(receipts, r.receipt)
		}
		return receipts
	}
	want := run()
	n := len(want) / 2 // every packet was delivered twice
	if redelivered := want[n-1 : 2*n-2]; !slices.IsSorted(redelivered) {
		t.Fatalf("redelivered receipts not in message-id order: %v", redelivered)
	}
	for _, r := range want[2*n-2:] {
		if !strings.HasPrefix(r, head+"#") {
			t.Fatalf("receipts end %v, want the header %s's two", want[2*n-2:], head)
		}
	}
	for i := 0; i < 8; i++ {
		if got := run(); !slices.Equal(got, want) {
			t.Fatalf("run %d of the same seed returned\n %v, the first\n %v", i+1, got, want)
		}
	}
}
