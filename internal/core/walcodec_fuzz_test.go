package core

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

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
