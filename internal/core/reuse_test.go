package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// renderNotice writes what a notice says, down to every attribute, so a
// copy taken during the callback can be compared after later groups.
func renderNotice(n CommitNotice) string {
	var b strings.Builder
	fmt.Fprintf(&b, "txns %v digests %q epoch %d\n", n.Txns, n.Digests, n.Epoch)
	for _, it := range n.Items {
		fmt.Fprintf(&b, "%s %s %v\n", it.Txn, it.Name, it.Attrs)
	}
	return b.String()
}

// TestGroupBuffersOutliveNothing commits eight transactions one group at a
// time, so every group after the first reuses the put requests, attribute
// slabs, group buffers and notice of the groups before it. Each notice, read
// during its callback, must carry exactly its own transaction's items, and
// every item must read back from the database as its put request wrote it
// once all eight groups have reused those buffers: the database keeps no
// view of them.
func TestGroupBuffersOutliveNothing(t *testing.T) {
	dep := newDep(t, sim.Strict)
	p := NewP3(dep, Options{})
	objs, bundles := poolTxns(11, 8, 3)
	var rendered []string
	var kept []CommitNotice // shallow: its slices are reused by later groups
	defer dep.Commits.Subscribe(func(n CommitNotice) int64 {
		rendered = append(rendered, renderNotice(n))
		kept = append(kept, n)
		return 0
	})()
	var ids []uuid.UUID
	for i := range objs {
		if err := p.Commit(objs[i], bundles[i]); err != nil {
			t.Fatal(err)
		}
		if err := p.Settle(); err != nil {
			t.Fatal(err)
		}
		if len(kept) != i+1 || len(kept[i].Txns) != 1 {
			t.Fatalf("group %d: %d notices so far, want one notice of one transaction per group", i, len(kept))
		}
		ids = append(ids, kept[i].Txns[0])
	}
	if &kept[0].Items[:1][0] != &kept[len(kept)-1].Items[:1][0] {
		t.Fatal("the groups did not reuse the notice's items: the test exercises no reuse")
	}
	less := func(a, b sdb.Attr) int { return strings.Compare(a.Name+"\x00"+a.Value, b.Name+"\x00"+b.Value) }
	for i, set := range bundles {
		reqs, _ := itemsFor(nil, nil, set)
		want := CommitNotice{Txns: ids[i : i+1], Digests: []string{objs[i].Digest}, Epoch: kept[i].Epoch}
		for _, r := range reqs {
			want.Items = append(want.Items, NoticeItem{Txn: ids[i], Name: r.Item, Attrs: r.Attrs})
		}
		if w := renderNotice(want); rendered[i] != w {
			t.Errorf("group %d's notice, read in its callback:\n%swant\n%s", i, rendered[i], w)
		}
		for _, r := range reqs {
			it, err := dep.DB.GetAttributes(r.Item)
			if err != nil {
				t.Fatal(err)
			}
			got, want := slices.Clone(it.Attrs), slices.Clone(r.Attrs)
			slices.SortFunc(got, less)
			slices.SortFunc(want, less)
			if !slices.Equal(got, want) {
				t.Errorf("%s reads back %v, want %v", r.Item, got, want)
			}
		}
	}
}

// TestCommitPathReuseAllocations pins the commit daemon's reuse sites, once
// warm: put requests built into a transaction's pooled buffers allocate only
// their one string of item names; a notice built in the bus's reused one
// allocates nothing; and a transaction folded into a released state
// allocates neither the state nor its buffers.
func TestCommitPathReuseAllocations(t *testing.T) {
	if RaceEnabled {
		t.Skip("the race detector allocates on its own and drops pooled states")
	}
	// With the collector off, the pools keep what they are given.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	_, sets := poolTxns(5, 1, 4)
	reqs, attrs := itemsFor(nil, nil, sets[0])
	if got := testing.AllocsPerRun(100, func() { reqs, attrs = itemsFor(reqs, attrs, sets[0]) }); got != 1 {
		t.Errorf("itemsFor into reused buffers allocates %v times, want 1 (the item names)", got)
	}

	dep := newDep(t, sim.Strict)
	defer dep.Commits.Subscribe(func(CommitNotice) int64 { return 0 })()
	groups := []TxnCommit{{Txn: uuid.UUID{1}, Reqs: reqs}, {Txn: uuid.UUID{2}, Digest: "d", Reqs: reqs}}
	if got := testing.AllocsPerRun(100, func() { dep.publishCommit(groups) }); got != 0 {
		t.Errorf("publishing a two-transaction group allocates %v times, want 0", got)
	}

	txn, hdr, bundles := bulkTxn(sim.NewRand(7))
	p := NewP3(NewDeployment(sim.NewEnv(sim.DefaultConfig())), Options{})
	delivery := deliver(encodeWALBundles(txn, hdr, bundles, 0))
	fold := func(release bool) func() {
		return func() {
			ready, _, _ := p.foldMessages(0, delivery)
			if len(ready) != 1 || ready[0].err != nil {
				t.Fatalf("fold: %d ready", len(ready))
			}
			p.endInflight(ready[0], false)
			if release {
				ready[0].release()
			}
		}
	}
	runtime.GC()
	runtime.GC() // empty the pools of what other tests released: a fold without release takes new states
	fresh, pooled := testing.AllocsPerRun(100, fold(false)), testing.AllocsPerRun(100, fold(true))
	t.Logf("a fold allocates %v times into a new state, %v into a released one", fresh, pooled)
	// The state, its fragments and receipts (grown packet by packet), its
	// heads, the requests and their attribute slab.
	if fresh-pooled < 12 {
		t.Errorf("a fold into a released state allocates %v times, into a new one %v: want at least 12 fewer", pooled, fresh)
	}

	// A whole round trip — log phase, receive, fold, group commit, cleanup —
	// of a warm daemon: its group buffers, states and receive pages come
	// back out of their pools.
	dep = newDep(t, sim.Strict)
	p = NewP3(dep, Options{})
	objs, txns := poolTxns(9, 1, 3)
	trip := func() {
		if err := p.Commit(objs[0], txns[0]); err != nil {
			t.Fatal(err)
		}
		if progress, err := p.CommitOnce(); !progress || err != nil {
			t.Fatalf("commit round: progress %v, err %v", progress, err)
		}
	}
	trip()
	// A daemon that pooled none of them allocates 83 times.
	if got := testing.AllocsPerRun(50, trip); got > 55 {
		t.Errorf("a P3 round trip allocates %v times, want at most 55", got)
	}
}
