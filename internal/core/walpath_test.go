package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/cloud/sqs"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// bulkTxn is one transaction of the ingest_bulk shape: a process and 63
// versions of the file it derives, each about 1 KB on the wire and all
// carrying the same 900-byte env value.
func bulkTxn(rnd *sim.Rand) (uuid.UUID, walTxn, []prov.Bundle) {
	pad := strings.Repeat("p", 900)
	proc := prov.Ref{UUID: uuid.New(rnd), Version: 1}
	path := "mnt/bulk/r0/000042"
	bundles := []prov.Bundle{{Ref: proc, Type: prov.Process, Name: "bulkprog", Records: []prov.Record{
		{Attr: prov.AttrType, Value: "proc"}, {Attr: prov.AttrName, Value: "bulkprog"}, {Attr: prov.AttrEnv, Value: pad},
	}}}
	file := prov.Ref{UUID: uuid.New(rnd)}
	for v := 1; v < 64; v++ {
		recs := []prov.Record{
			{Attr: prov.AttrType, Value: "file"}, {Attr: prov.AttrName, Value: path},
			{Attr: prov.AttrInput, Xref: proc}, {Attr: prov.AttrEnv, Value: pad},
		}
		if v > 1 {
			recs = append(recs, prov.Record{Attr: prov.AttrPrevVer, Xref: file})
		}
		file.Version = v
		bundles = append(bundles, prov.Bundle{Ref: file, Type: prov.File, Name: path, Records: recs})
	}
	txn := uuid.New(rnd)
	hdr := walTxn{Txn: txn, TmpKey: TmpPrefix + txn.String(), FinalKey: DataKey(path), Size: 4096, Ref: file}
	return txn, hdr, bundles
}

// deliver wraps msgs as one delivery each, in order.
func deliver(msgs [][]byte) []sqs.Message {
	out := make([]sqs.Message, len(msgs))
	for i, m := range msgs {
		out[i] = sqs.Message{ID: strconv.Itoa(i), ReceiptHandle: "r" + strconv.Itoa(i), Body: m}
	}
	return out
}

// reusedValues counts a decoded transaction's non-empty attribute values,
// and those that share the string of the previous item's value at the same
// index (the decoder's reuse along a version chain, and cross references to
// an item of the same transaction).
func reusedValues(reqs []sdb.PutRequest) (hits, values int) {
	for i, req := range reqs {
		for j, a := range req.Attrs {
			if a.Value == "" {
				continue
			}
			values++
			if i > 0 && j < len(reqs[i-1].Attrs) &&
				unsafe.StringData(a.Value) == unsafe.StringData(reqs[i-1].Attrs[j].Value) {
				hits++
			}
		}
	}
	return hits, values
}

// TestWALPathAllocations pins the write-once, read-in-place WAL path on an
// ingest_bulk-shaped transaction: the encode allocates the packets, their
// slice and at most one scratch buffer; folding the packets, decoding them
// and building the put requests allocates at most a third of the payload's
// bytes in all (about 20 KB of 66 KB; 30 KB for the fold and decode alone
// when each decode made its own bundles), so nothing reassembles the
// payload and the decoded bundles are not kept; and the 63 repeated env
// values decode to one shared string.
func TestWALPathAllocations(t *testing.T) {
	txn, hdr, bundles := bulkTxn(sim.NewRand(42))
	payload := 0
	for _, b := range bundles {
		payload += b.EncodedSize()
	}
	msgs := encodeWALBundles(txn, hdr, bundles, 0)
	if len(msgs) < 2 {
		t.Fatalf("%d-byte payload in %d packet(s), want several", payload, len(msgs))
	}
	if got := testing.AllocsPerRun(20, func() { encodeWALBundles(txn, hdr, bundles, 0) }); got > float64(len(msgs)+2) {
		t.Errorf("encoding %d packets = %v allocations, want at most %d", len(msgs), got, len(msgs)+2)
	}

	p := NewP3(NewDeployment(sim.NewEnv(sim.DefaultConfig())), Options{})
	delivery := deliver(msgs)
	fold := func() []sdb.PutRequest {
		ready, _, _ := p.foldMessages(0, delivery)
		if len(ready) != 1 || ready[0].err != nil {
			t.Fatalf("fold: %d ready", len(ready))
		}
		p.endInflight(ready[0], false)
		return ready[0].reqs
	}
	got := fold()
	if !sameReqs(got, bundles) {
		t.Fatal("the transaction decoded to other requests than its bundles make")
	}
	// With the collector off, the pooled decoder survives the runs, as it
	// does between a busy daemon's transactions.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		fold()
	}
	runtime.ReadMemStats(&after)
	// Under the race detector the pool drops one decoder in four that it is
	// given, and instrumentation allocates besides (33-38 KB a transaction),
	// so a race build keeps the bound that held before the decoder was
	// pooled: under the payload.
	per, limit := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(payload)/3
	if RaceEnabled {
		limit = uint64(payload) - 1
	}
	if per > limit {
		t.Errorf("fold + decode + requests allocate %d bytes per transaction, want at most %d of the %d-byte payload", per, limit, payload)
	}

	env := unsafe.StringData(got[1].Attrs[3].Value)
	for _, req := range got[1:] {
		if unsafe.StringData(req.Attrs[3].Value) != env {
			t.Fatalf("item %s's env value is a copy of its own", req.Item)
		}
	}
	hits, values := reusedValues(got)
	t.Logf("ingest_bulk shape: %d of %d attribute values reuse the previous item's string", hits, values)
}

// TestWALPathRecyclesPackets pins the steady-state WAL round trip on
// ingest_bulk-shaped transactions: once a transaction is encoded, sent,
// received, folded, decoded and its receipts deleted, the queue has its
// packets' blocks back, so the next transaction's log phase (encode and
// send) allocates less than one packet's worth of body bytes.
func TestWALPathRecyclesPackets(t *testing.T) {
	dep := newDep(t, sim.Strict)
	p := NewP3(dep, Options{})
	rnd := sim.NewRand(42)
	txn, hdr, bundles := bulkTxn(rnd)
	packets := len(encodeWALBundles(txn, hdr, bundles, 0))
	// logged commits one transaction, the round trip's every step, and
	// returns what its log phase allocated.
	logged := func() uint64 {
		_, hdr, bundles := bulkTxn(rnd)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := p.Commit(FileObject{Path: "mnt/bulk/r0/000042", Size: hdr.Size, Ref: hdr.Ref}, bundles)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Settle(); err != nil {
			t.Fatal(err)
		}
		if n := dep.WAL.Len(); n != 0 {
			t.Fatalf("%d packets left on the WAL", n)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	// A collection empties the block pool, as it would a busy daemon's.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	logged()
	const runs = 20
	total := uint64(0)
	for range runs {
		total += logged()
	}
	// Under the race detector the pool drops one block in four that it is
	// given, a quarter of the packets: a race build's bound is half of them.
	per, limit := total/runs, uint64(sqs.MaxMessageSize)
	if RaceEnabled {
		limit = uint64(packets * sqs.MaxMessageSize / 2)
	}
	t.Logf("log phase of a %d-packet transaction: %d bytes", packets, per)
	if per >= limit {
		t.Errorf("the log phase of a %d-packet transaction allocates %d bytes, want under %d: the packets did not reuse the acknowledged ones' blocks", packets, per, limit)
	}
}

// TestFoldDropsOutOfRangeSeq: a packet numbered at or past its
// transaction's packet count is dropped at fold. Before, a forged packet 7
// of a 2-packet transaction counted towards its total: packets 0 and 7 made
// it "ready" and failing with "missing packet 1", and the real packet 1 was
// stranded in a headerless pending entry.
func TestFoldDropsOutOfRangeSeq(t *testing.T) {
	rnd := sim.NewRand(35)
	txn := uuid.New(rnd)
	bundles := []prov.Bundle{
		{Ref: prov.Ref{UUID: uuid.New(rnd), Version: 1}, Type: prov.Process, Name: "p", Records: []prov.Record{{Attr: prov.AttrType, Value: "proc"}}},
		{Ref: prov.Ref{UUID: uuid.New(rnd), Version: 2}, Type: prov.File, Name: "f", Records: []prov.Record{{Attr: prov.AttrName, Value: "f"}}},
	}
	hdr := walTxn{Txn: txn, FinalKey: DataKey("f"), Ref: bundles[1].Ref}
	size := len(prov.EncodeBundles(bundles))
	msgs := encodeWALBundles(txn, hdr, bundles, (size+1)/2)
	if len(msgs) != 2 {
		t.Fatalf("%d packets, want 2", len(msgs))
	}
	forged := append(appendWALHead(nil, txn, hdr, 7, 2), "forged"...)
	for _, order := range [][][]byte{
		{msgs[0], forged, msgs[1]},
		{forged, msgs[0], msgs[1]},
		{msgs[1], forged, msgs[0]},
	} {
		p := NewP3(newDep(t, sim.Strict), Options{})
		var ready []*txnState
		for _, m := range deliver(order) {
			// One packet per fold, ending a failed commit before the next,
			// as the daemon would.
			rdy, _, _ := p.foldMessages(0, []sqs.Message{m})
			for _, st := range rdy {
				ready = append(ready, st)
				p.endInflight(st, st.err == nil)
			}
		}
		if len(ready) != 1 || ready[0].err != nil || !sameReqs(ready[0].reqs, bundles) {
			errs := make([]string, len(ready))
			for i, st := range ready {
				errs[i] = fmt.Sprint(st.err)
			}
			t.Fatalf("%d transactions ready (errors %v), want 1 with the encoded bundles", len(ready), errs)
		}
		if n := p.PendingTxns(); n != 0 {
			t.Fatalf("%d transactions left pending", n)
		}
	}
	for _, head := range [][]byte{appendWALHead(nil, txn, hdr, 0, 0), appendWALHead(nil, txn, hdr, maxWALPackets, maxWALPackets+1)} {
		if _, err := decodeWAL(head); err == nil {
			t.Errorf("a packet out of its own range decoded: %x", head)
		}
	}
}

var sinkReady []sdb.PutRequest

// BenchmarkWALRoundTrip is one ingest_bulk-shaped transaction through the
// WAL path: encode into packets, fold them, decode the fragments.
func BenchmarkWALRoundTrip(b *testing.B) {
	txn, hdr, bundles := bulkTxn(sim.NewRand(42))
	p := NewP3(NewDeployment(sim.NewEnv(sim.DefaultConfig())), Options{})
	b.ReportAllocs()
	for b.Loop() {
		ready, _, _ := p.foldMessages(0, deliver(encodeWALBundles(txn, hdr, bundles, 0)))
		if err := ready[0].err; err != nil {
			b.Fatal(err)
		}
		sinkReady = ready[0].reqs
		p.endInflight(ready[0], false)
	}
}
