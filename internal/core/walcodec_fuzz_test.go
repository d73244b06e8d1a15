package core

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/cloud/sqs"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// ChainedTxns builds n transactions of one "stage" process and versions
// 1..k-1 of the file it writes, each process reading the file before it, so
// Q3 finds every process's outputs and Q4 walks the whole chain. The
// envelope golden commits them; FuzzDecodeWAL seeds its corpus with their
// WAL packets.
func ChainedTxns(seed int64, n, k int) (objs []FileObject, bundles [][]prov.Bundle) {
	rnd := sim.NewRand(seed)
	var last prov.Ref
	for t := 0; t < n; t++ {
		proc := prov.Ref{UUID: uuid.New(rnd), Version: 1}
		recs := []prov.Record{
			{Attr: prov.AttrType, Value: "proc"},
			{Attr: prov.AttrName, Value: "stage"},
			{Attr: prov.AttrEnv, Value: strings.Repeat("e", 700)},
		}
		if t > 0 {
			recs = append(recs, prov.Record{Attr: prov.AttrInput, Xref: last})
		}
		set := []prov.Bundle{{Ref: proc, Type: prov.Process, Name: "stage", Records: recs}}
		file, path := uuid.New(rnd), fmt.Sprintf("mnt/chain/%04d", t)
		for v := 1; v < k; v++ {
			recs := []prov.Record{
				{Attr: prov.AttrType, Value: "file"},
				{Attr: prov.AttrName, Value: path},
				{Attr: prov.AttrInput, Xref: proc},
			}
			if v > 1 {
				recs = append(recs, prov.Record{Attr: prov.AttrPrevVer, Xref: last})
			}
			last = prov.Ref{UUID: file, Version: v}
			set = append(set, prov.Bundle{Ref: last, Type: prov.File, Name: path, Records: recs})
		}
		objs = append(objs, FileObject{Path: path, Size: 2048, Ref: last})
		bundles = append(bundles, set)
	}
	return objs, bundles
}

// FuzzDecodeWAL: decodeWAL never panics and allocates at most
// 64·len(msg)+16 KiB, whatever the queue hands it. The seed corpus is the
// envelope golden's transactions as P3 sends them, at the default chunk size
// and at one that splits each over several packets, and every one of those
// packets is first checked to decode to the header, seq and payload it was
// encoded from.
func FuzzDecodeWAL(f *testing.F) {
	rnd := sim.NewRand(42)
	objs, bundles := ChainedTxns(42, 40, 4)
	for i, obj := range objs {
		txn := uuid.New(rnd)
		hdr := walTxn{Txn: txn, TmpKey: TmpPrefix + txn.String(), FinalKey: DataKey(obj.Path), Size: obj.Size, Ref: obj.Ref}
		for _, chunk := range []int{0, 256} {
			msgs := encodeWALBundles(txn, hdr, bundles[i], chunk)
			want := hdr
			want.Total = len(msgs)
			var payload []byte
			for seq, m := range msgs {
				p, err := decodeWAL(m)
				if err != nil {
					f.Fatalf("txn %d chunk %d packet %d: %v", i, chunk, seq, err)
				}
				if p.Txn != txn || p.Seq != seq || p.First != (seq == 0) || p.First && p.Header != want {
					f.Fatalf("txn %d chunk %d packet %d decoded as %+v", i, chunk, seq, p)
				}
				payload = append(payload, p.Payload...)
				f.Add(m)
			}
			if !bytes.Equal(payload, prov.EncodeBundles(bundles[i])) {
				f.Fatalf("txn %d chunk %d: the packets' payloads are not the bundles' encoding", i, chunk)
			}
		}
	}
	f.Fuzz(func(t *testing.T, msg []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := decodeWAL(msg)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(msg))+16<<10; got > limit {
			t.Fatalf("decodeWAL of %d bytes allocated %d bytes, over %d", len(msg), got, limit)
		}
		if err == nil && !bytes.HasSuffix(msg, p.Payload) {
			t.Fatalf("decodeWAL's payload is not the tail of the packet")
		}
	})
}

// foldChunk is the chunk size FuzzFoldMessages cuts a payload with: at most
// 16 packets, so one schedule byte can name any of them.
func foldChunk(payload []byte) int { return max(32, (len(payload)+15)/16) }

// FuzzFoldMessages: foldMessages never panics, allocates at most
// 64·len(input)+64 KiB, and completes a transaction only with exactly its
// own packets. The input is one transaction's provenance payload, cut into
// WAL packets, and a schedule: each byte delivers the packet it names (in
// the low three bits 0-3) or a forgery — 4 a second packet with the seq of
// one already delivered, 5 one numbered past the count, 6 a packet of a
// foreign transaction, 7 a packet whose framing is corrupt. Messages fold ten
// at a time, as a receive page delivers them. The transaction is ready once,
// exactly when every genuine packet is in; its requests are what
// ItemsForBundles makes of the payload's bundles (when no value needs
// spilling), or it carries the decode's error; and they are unchanged after
// the pooled decoder has decoded another transaction. The seed corpus is the
// envelope golden's transactions, in order, reversed and with each forgery.
func FuzzFoldMessages(f *testing.F) {
	_, txns := ChainedTxns(42, 6, 4)
	for i, set := range txns {
		payload := prov.EncodeBundles(set)
		n := len(encodeWAL(uuid.UUID{}, walTxn{}, payload, foldChunk(payload)))
		var order, reverse []byte
		for k := 0; k < n; k++ {
			order = append(order, byte(k<<3))
			reverse = append(reverse, byte((n-1-k)<<3))
		}
		f.Add(payload, order)
		f.Add(payload, reverse)
		forged := append([]byte{byte(i%n)<<3 | 6, 5, byte(n-1)<<3 | 7}, order...)
		f.Add(payload, append(forged, byte(i%n)<<3|4))
	}
	other := prov.EncodeBundles(txns[0])
	f.Fuzz(func(t *testing.T, payload, schedule []byte) {
		rnd := sim.NewRand(int64(len(payload)))
		txn, foreign := uuid.New(rnd), uuid.New(rnd)
		hdr := walTxn{Txn: txn, FinalKey: DataKey("mnt/f"), Ref: prov.Ref{UUID: uuid.New(rnd), Version: 1}}
		msgs := encodeWAL(txn, hdr, payload, foldChunk(payload))
		n := len(msgs)
		var delivery []sqs.Message
		delivered := make([]bool, n)
		for i, b := range schedule {
			k, m := int(b>>3)%n, sqs.Message{ID: "forged" + strconv.Itoa(i), ReceiptHandle: "r" + strconv.Itoa(i)}
			switch b & 7 {
			case 4:
				if delivered[k] {
					m.Body = append(appendWALHead(nil, txn, walTxn{Txn: txn, Total: n}, k, n), "forged"...)
					break
				}
				fallthrough
			case 0, 1, 2, 3:
				m.ID, m.Body, delivered[k] = "genuine"+strconv.Itoa(k), msgs[k], true
			case 5:
				m.Body = append(appendWALHead(nil, txn, hdr, n+k, n), "past"...)
			case 6:
				m.Body = append(appendWALHead(nil, foreign, hdr, 1+k, n+1), "foreign"...)
			case 7:
				m.Body = append([]byte{msgs[k][0] ^ 0xff}, msgs[k][1:]...)
			}
			delivery = append(delivery, m)
		}
		p := NewP3(NewDeployment(sim.NewEnv(sim.DefaultConfig())), Options{})
		var ready []*txnState
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for page := range slices.Chunk(delivery, sqs.MaxBatchEntries) {
			rdy, _, _ := p.foldMessages(0, page)
			ready = append(ready, rdy...)
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(payload)+len(schedule))+64<<10; got > limit {
			t.Fatalf("folding %d messages of a %d-byte payload allocated %d bytes, over %d", len(delivery), len(payload), got, limit)
		}
		complete := !slices.Contains(delivered, false)
		if len(ready) != 0 && (len(ready) != 1 || ready[0].header.Txn != txn) || complete != (len(ready) == 1) {
			t.Fatalf("%d of %d packets delivered, %d transactions ready", len(slices.DeleteFunc(delivered, func(d bool) bool { return !d })), n, len(ready))
		}
		if !complete {
			return
		}
		st := ready[0]
		bundles, err := prov.DecodeBundles(payload)
		if (err == nil) != (st.err == nil) {
			t.Fatalf("the payload decodes with error %v, the transaction with %v", err, st.err)
		}
		if err != nil {
			return
		}
		check := func(when string) {
			if !sameReqs(st.reqs, bundles) {
				t.Fatalf("%s: the transaction's requests are not the payload's", when)
			}
			if slices.ContainsFunc(bundles, func(b prov.Bundle) bool {
				return slices.ContainsFunc(b.Records, func(r prov.Record) bool { return len(r.Value) > sdb.MaxValueLen })
			}) {
				return
			}
			want, err := ItemsForBundles(nil, bundles)
			if err != nil || !slices.EqualFunc(st.reqs, want, sameReq) {
				t.Fatalf("%s: the transaction's requests are not ItemsForBundles' (%v)", when, err)
			}
		}
		check("folded")
		txn2 := uuid.New(rnd)
		for _, m := range deliver(encodeWAL(txn2, walTxn{Txn: txn2, FinalKey: DataKey("mnt/g")}, other, 0)) {
			p.foldMessages(0, []sqs.Message{m})
		}
		check("after another transaction's decode")
	})
}
