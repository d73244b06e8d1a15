package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"passcloud/internal/cloud/sqs"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// walDigest hashes a packet list with each packet length-prefixed, so a
// byte moved across a packet boundary changes the digest.
func walDigest(msgs [][]byte) string {
	h := sha256.New()
	for _, m := range msgs {
		h.Write([]byte{byte(len(m) >> 8), byte(len(m))})
		h.Write(m)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestWALGoldenBytes pins the WAL packet format: the digests were captured
// from encodeWAL at the commit before the exact-size rewrite (0f2dc8a),
// except "default chunks". Its 169-byte first header is over walHeaderRoom,
// so its first packet carries 8,023 payload bytes rather than 8,032 and fits
// the queue's limit; its digest was captured for that layout.
func TestWALGoldenBytes(t *testing.T) {
	txn := uuid.UUID{0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0x4c, 0xde, 0x8f, 0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd}
	hdr := walTxn{
		Txn:      txn,
		TmpKey:   TmpPrefix + txn.String(),
		FinalKey: DataKey("mnt/out/main.o"),
		Size:     1 << 20,
		Ref:      prov.Ref{UUID: uuid.UUID{0xa0, 0xa1, 0xa2, 0xa3, 0xa4, 0xa5, 0x46, 0xa7, 0x98, 0xa9, 0xaa, 0xab, 0xac, 0xad, 0xae, 0xaf}, Version: 300},
		Digest:   strings.Repeat("5a", 32),
	}
	payload := []byte(strings.Repeat("provenance-bytes-", 1200)) // 20,400 bytes
	for _, tc := range []struct {
		name      string
		hdr       walTxn
		payload   []byte
		chunkSize int
		packets   int
		digest    string
	}{
		{"default chunks", hdr, payload, 0, 3, "2a0928001b74c7746867f7979d37d784a58ffff1da77e83a59aa4c812b1e6a91"},
		{"exact multiple of the chunk size", hdr, payload[:2048], 512, 4, "a67aa31ec332f3740a55fd1f9652551abfbe7e7c4f7c2ac0e9f8716497acbcca"},
		{"one byte over a multiple", hdr, payload[:2049], 512, 5, "d1b01ea11e924a99fcaaad865d530887302ffd88ec040258480e29dd058b1641"},
		{"empty payload, no data object", walTxn{Txn: txn, FinalKey: DataKey(""), Ref: hdr.Ref}, nil, 0, 1, "7c0fdf35012eb2ac524e8644ff2f62d38a81279d287f8f27becf2bd269aa2bb3"},
	} {
		msgs := encodeWAL(txn, tc.hdr, tc.payload, tc.chunkSize)
		if got := walDigest(msgs); len(msgs) != tc.packets || got != tc.digest {
			t.Errorf("%s: %d packets, digest %s; want %d, %s", tc.name, len(msgs), got, tc.packets, tc.digest)
		}
		for seq, m := range msgs {
			if len(m) > sqs.MaxMessageSize {
				t.Errorf("%s: packet %d is %d bytes, over the queue's limit", tc.name, seq, len(m))
			}
		}
	}
	// One small message spelled out in full.
	small := encodeWAL(txn, walTxn{Txn: txn, FinalKey: "data/f", Size: 7, Ref: prov.Ref{UUID: txn, Version: 2}}, []byte("xyz"), 0)
	const want = "574c0123456789ab4cde8f0123456789abcd0001010006646174612f66070123456789ab4cde8f0123456789abcd020078797a"
	if got := hex.EncodeToString(small[0]); len(small) != 1 || got != want {
		t.Errorf("small packet is\n %s, want\n %s", got, want)
	}
}

// TestWALBundlesMatchPayloadEncoding: encoding bundles straight into their
// message (the log phase's path) is byte-identical to encoding the payload
// and cutting it into packets, for payloads under, exactly at and over one
// chunk, and for no bundles at all.
func TestWALBundlesMatchPayloadEncoding(t *testing.T) {
	rnd := sim.NewRand(20100223)
	txn := uuid.New(rnd)
	hdr := walTxn{Txn: txn, TmpKey: TmpPrefix + txn.String(), FinalKey: DataKey("mnt/out/main.o"), Size: 4711,
		Ref: prov.Ref{UUID: uuid.New(rnd), Version: 3}, Digest: strings.Repeat("5a", 32)}
	var bundles []prov.Bundle
	for n := 0; n < 40; n++ {
		for _, chunk := range []int{0, 64, 256, len(prov.EncodeBundles(bundles))} {
			want := encodeWAL(txn, hdr, prov.EncodeBundles(bundles), chunk)
			got := encodeWALBundles(txn, hdr, bundles, chunk)
			if walDigest(got) != walDigest(want) {
				t.Fatalf("%d bundles, chunk %d: %d packets differ from the payload encoding's %d", n, chunk, len(got), len(want))
			}
		}
		bundles = append(bundles, prov.Bundle{Ref: prov.Ref{UUID: uuid.New(rnd), Version: 1 + rnd.Intn(300)}, Type: prov.File, Name: "f",
			Records: []prov.Record{{Attr: prov.AttrArgv, Value: strings.Repeat("v", rnd.Intn(40))}, {Attr: prov.AttrInput, Xref: hdr.Ref}}})
	}
}

// sameBundles compares decoded bundles with what was encoded (a decoded
// bundle's empty record list is non-nil, so not reflect.DeepEqual).
func sameBundles(got, want []prov.Bundle) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Ref != w.Ref || g.Type != w.Type || g.Name != w.Name || len(g.Records) != len(w.Records) {
			return false
		}
		for j := range g.Records {
			if g.Records[j] != w.Records[j] {
				return false
			}
		}
	}
	return true
}

// TestWALDeliveryProperty: however the queue delivers a transaction's
// packets — any order, any packet any number of times — assembly hands
// decodeTxn exactly what the client encoded.
func TestWALDeliveryProperty(t *testing.T) {
	rnd := sim.NewRand(20100223)
	ref := func(v int) prov.Ref { return prov.Ref{UUID: uuid.New(rnd), Version: v} }
	proc := ref(1)
	spilled := prov.Record{Attr: prov.AttrEnv, Value: strings.Repeat("v", 1500)} // over the database's 1 KB value limit
	type testCase struct {
		name    string
		bundles []prov.Bundle
	}
	cases := []testCase{
		{"empty-records bundle alone", []prov.Bundle{{Ref: ref(2), Type: prov.Pipe}}},
		{"empty-records bundle between others", []prov.Bundle{
			{Ref: proc, Type: prov.Process, Name: "p", Records: []prov.Record{{Attr: prov.AttrType, Value: "proc"}}},
			{Ref: ref(1), Type: prov.Pipe},
			{Ref: ref(7), Type: prov.File, Name: "f", Records: []prov.Record{{Attr: prov.AttrInput, Xref: proc}}},
		}},
		{"spilled value", []prov.Bundle{
			{Ref: proc, Type: prov.Process, Name: "p", Records: []prov.Record{spilled, {Attr: "x-unknown", Value: ""}}},
			{Ref: ref(300), Type: prov.File, Name: "mnt/f", Records: []prov.Record{{Attr: prov.AttrInput, Xref: proc}, spilled, {Attr: prov.AttrPrevVer, Xref: ref(299)}}},
		}},
	}
	// A payload that is an exact multiple of the chunk size: pad a value
	// until it is.
	const chunk = 64
	multiple := []prov.Bundle{{Ref: ref(1), Type: prov.File, Name: "m", Records: []prov.Record{{Attr: prov.AttrArgv, Value: ""}}}}
	for len(prov.EncodeBundles(multiple))%chunk != 0 {
		multiple[0].Records[0].Value += "x"
	}
	cases = append(cases, testCase{"payload an exact multiple of the chunk size", multiple})

	for _, tc := range cases {
		name, bundles := tc.name, tc.bundles
		payload := prov.EncodeBundles(bundles)
		for _, chunkSize := range []int{chunk, 0} {
			txn := uuid.New(rnd)
			hdr := walTxn{Txn: txn, FinalKey: DataKey("mnt/f"), Ref: bundles[len(bundles)-1].Ref}
			msgs := encodeWAL(txn, hdr, payload, chunkSize)
			if want := max(1, (len(payload)+chunk-1)/chunk); chunkSize == chunk && len(msgs) != want {
				t.Fatalf("%s: %d packets, want %d", name, len(msgs), want)
			}
			for round := 0; round < 20; round++ {
				// Every packet at least once, a random number of extra
				// copies, in a random order.
				var delivery []sqs.Message
				for i, m := range msgs {
					for n := 1 + rnd.Intn(3); n > 0; n-- {
						delivery = append(delivery, sqs.Message{ID: strconv.Itoa(i), Body: m, ReceiptHandle: fmt.Sprintf("%d#%d", i, n)})
					}
				}
				for i := len(delivery) - 1; i > 0; i-- {
					j := rnd.Intn(i + 1)
					delivery[i], delivery[j] = delivery[j], delivery[i]
				}
				p := NewP3(newDep(t, sim.Strict), Options{})
				ready, acks, held := p.foldMessages(0, delivery)
				if len(ready) != 1 || len(acks) != 0 {
					t.Fatalf("%s: %d ready, %d acks", name, len(ready), len(acks))
				}
				// Copies delivered after the last distinct packet arrived
				// are held for the now in-flight transaction, one receipt
				// per message.
				st := ready[0]
				if got := len(st.receipts) + len(st.heads) + held; got != len(delivery) {
					t.Fatalf("%s: %d receipts + %d header receipts + %d held of %d deliveries", name, len(st.receipts), len(st.heads), held, len(delivery))
				}
				if kept := len(ready[0].redelivered); kept > len(msgs) || (held > 0) != (kept > 0) {
					t.Fatalf("%s: %d receipts kept for %d held redeliveries of %d messages", name, kept, held, len(msgs))
				}
				if err := ready[0].err; err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := ready[0].bundles; !sameBundles(got, bundles) {
					t.Fatalf("%s (chunk %d): decoded\n %+v, want\n %+v", name, chunkSize, got, bundles)
				}
			}
		}
	}
}

// benchTxn is a bulk-ingest-shaped transaction: 64 bundles of about 1 KB.
func benchTxn() (uuid.UUID, walTxn, []byte) {
	objs, bundles := poolTxns(1, 1, 64)
	for i := range bundles[0] {
		bundles[0][i].Records = append(bundles[0][i].Records, prov.Record{Attr: prov.AttrEnv, Value: strings.Repeat("e", 900)})
	}
	txn := uuid.UUID{1, 2, 3, 4, 5, 6, 0x47, 8, 0x89, 10, 11, 12, 13, 14, 15, 16}
	hdr := walTxn{Txn: txn, TmpKey: TmpPrefix + txn.String(), FinalKey: DataKey(objs[0].Path), Size: objs[0].Size, Ref: objs[0].Ref}
	return txn, hdr, prov.EncodeBundles(bundles[0])
}

var (
	sinkMsgs    [][]byte
	sinkBundles []prov.Bundle
)

func BenchmarkEncodeWAL(b *testing.B) {
	txn, hdr, payload := benchTxn()
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for b.Loop() {
		sinkMsgs = encodeWAL(txn, hdr, payload, 0)
	}
}

// BenchmarkDecodeWAL is the daemon's side of one transaction: parse every
// packet, assemble, reassemble the payload and decode it.
func BenchmarkDecodeWAL(b *testing.B) {
	txn, hdr, payload := benchTxn()
	var delivery []sqs.Message
	for i, m := range encodeWAL(txn, hdr, payload, 0) {
		delivery = append(delivery, sqs.Message{Body: m, ReceiptHandle: strconv.Itoa(i)})
	}
	p := NewP3(NewDeployment(sim.NewEnv(sim.DefaultConfig())), Options{})
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for b.Loop() {
		ready, _, _ := p.foldMessages(0, delivery)
		if err := ready[0].err; err != nil {
			b.Fatal(err)
		}
		sinkBundles = ready[0].bundles
		p.endInflight(ready[0], false)
	}
}

// longHeaderTxn is a client-path transaction whose first WAL header is over
// walHeaderRoom: a temp key, a closure digest and a 25-byte path. Its
// closure encodes to more than two chunks.
func longHeaderTxn(rnd *sim.Rand) (FileObject, []prov.Bundle) {
	const path = "mnt/results/run-042/a.out" // 25 bytes
	proc := prov.Ref{UUID: uuid.New(rnd), Version: 1}
	bundles := []prov.Bundle{{Ref: proc, Type: prov.Process, Name: "align", Records: []prov.Record{
		{Attr: prov.AttrType, Value: "proc"}, {Attr: prov.AttrName, Value: "align"},
	}}}
	file := prov.Ref{UUID: uuid.New(rnd)}
	for v := 1; v <= 20; v++ {
		file.Version = v
		bundles = append(bundles, prov.Bundle{Ref: file, Type: prov.File, Name: path, Records: []prov.Record{
			{Attr: prov.AttrType, Value: "file"}, {Attr: prov.AttrName, Value: path},
			{Attr: prov.AttrInput, Xref: proc}, {Attr: prov.AttrEnv, Value: strings.Repeat("e", 700+rnd.Intn(200))},
		}})
	}
	return FileObject{Path: path, Size: 4096, Ref: file, Digest: ClosureRoot(bundles).String()}, bundles
}

// TestP3CommitsLongFirstHeader: a multi-packet transaction whose first
// header is over walHeaderRoom still commits — its first message fits the
// queue's 8 KB limit — and reads back exactly what was committed.
func TestP3CommitsLongFirstHeader(t *testing.T) {
	dep := newDep(t, sim.Strict)
	obj, bundles := longHeaderTxn(sim.NewRand(20100223))
	if size := len(prov.EncodeBundles(bundles)); size <= DefaultChunkSize {
		t.Fatalf("closure encodes to %d bytes, want more than one %d-byte chunk", size, DefaultChunkSize)
	}
	p := NewP3(dep, Options{})
	if err := p.Commit(obj, bundles); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if err := p.Settle(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProvenance(dep, BackendSDB, obj.Ref.UUID)
	if err != nil {
		t.Fatal(err)
	}
	// The database returns versions in item-name order (uuid_1, uuid_10,
	// …); put them back in commit order.
	slices.SortFunc(got, func(a, b prov.Bundle) int { return a.Ref.Version - b.Ref.Version })
	if !sameBundles(got, bundles[1:]) {
		t.Fatalf("read back %d bundles that differ from the %d committed", len(got), len(bundles)-1)
	}
}

// TestWALLongFirstHeader: a first header over walHeaderRoom shortens the
// first packet's payload to what still fits the queue's limit, later
// packets keep the full chunk, and the uneven fragments reassemble byte for
// byte at every payload length around the packet boundaries.
func TestWALLongFirstHeader(t *testing.T) {
	obj, bundles := longHeaderTxn(sim.NewRand(7))
	txn := uuid.New(sim.NewRand(8))
	hdr := walTxn{Txn: txn, TmpKey: TmpPrefix + txn.String(), FinalKey: DataKey(obj.Path), Size: obj.Size, Ref: obj.Ref, Digest: obj.Digest}
	payload := prov.EncodeBundles(bundles)
	head := appendWALHead(nil, txn, hdr, 0, 2)
	if len(head) <= walHeaderRoom {
		t.Fatalf("first header is %d bytes, want over walHeaderRoom (%d)", len(head), walHeaderRoom)
	}
	first := sqs.MaxMessageSize - len(head)
	for _, n := range []int{0, first - 1, first, first + 1, first + DefaultChunkSize, first + DefaultChunkSize + 1, len(payload)} {
		msgs := encodeWAL(txn, hdr, payload[:n], 0)
		var rebuilt []byte
		for seq, m := range msgs {
			if len(m) > sqs.MaxMessageSize {
				t.Fatalf("n=%d: packet %d is %d bytes, over the %d-byte limit", n, seq, len(m), sqs.MaxMessageSize)
			}
			pkt, err := decodeWAL(m)
			if err != nil || pkt.Seq != seq {
				t.Fatalf("n=%d: packet %d: seq %d, %v", n, seq, pkt.Seq, err)
			}
			want := min(n, first)
			if seq > 0 {
				want = min(DefaultChunkSize, n-first-(seq-1)*DefaultChunkSize)
			}
			if len(pkt.Payload) != want {
				t.Fatalf("n=%d: packet %d carries %d bytes, want %d", n, seq, len(pkt.Payload), want)
			}
			if seq == 0 && pkt.Header.Total != len(msgs) {
				t.Fatalf("n=%d: header says %d packets, encoded %d", n, pkt.Header.Total, len(msgs))
			}
			rebuilt = append(rebuilt, pkt.Payload...)
		}
		if string(rebuilt) != string(payload[:n]) {
			t.Fatalf("n=%d: payload corrupted across uneven chunks", n)
		}
	}
}

// encodeWAL splits an encoded provenance payload into WAL messages. Each
// packet header is built in a stack buffer and the message allocated once,
// at its final length.
func encodeWAL(txn uuid.UUID, hdr walTxn, payload []byte, chunkSize int) [][]byte {
	chunkSize = walChunkSize(chunkSize)
	var room [2 * walHeaderRoom]byte
	head, first, total := walFirst(room[:0], txn, hdr, len(payload), chunkSize)
	msgs := make([][]byte, total)
	for seq := range msgs {
		lo, hi := 0, min(first, len(payload))
		if seq > 0 {
			head = appendWALHead(room[:0], txn, hdr, seq, total)
			lo = first + (seq-1)*chunkSize
			hi = min(lo+chunkSize, len(payload))
		}
		msg := make([]byte, 0, len(head)+hi-lo)
		msgs[seq] = append(append(msg, head...), payload[lo:hi]...)
	}
	return msgs
}
