package core

import (
	"encoding/binary"
	"fmt"

	"passcloud/internal/cloud/sqs"
	"passcloud/internal/prov"
	"passcloud/internal/uuid"
)

// WAL packet format for P3 (§4.3.3). A transaction's provenance is encoded
// with the prov wire format and split into chunks small enough that every
// message fits the queue's 8 KB limit. The first bytes of each message
// carry the transaction id and a packet sequence number; the first packet
// additionally carries the packet count, a pointer to the temporary data
// object, the final object key, the object's size and its (uuid, version)
// link — everything the commit daemon needs.
//
// Layout:
//
//	magic   uint16 0x574c ("WL")
//	txn     [16]byte
//	seq     uvarint
//	flags   byte (1 == first packet)
//	first packet only:
//	  total    uvarint (number of packets in the transaction)
//	  tmpKey   uvarint-prefixed string ("" if the object carries no data)
//	  finalKey uvarint-prefixed string
//	  size     uvarint
//	  uuid     [16]byte
//	  version  uvarint
//	payload  rest of message (a fragment of the encoded provenance)
//
// Buffer ownership. encodeWAL copies the payload into freshly allocated
// messages, and encodeWALBundles encodes the bundles into them: the caller
// keeps payload and bundles and owns the messages (the queue copies a body
// again on send, so they may be reused). decodeWAL copies
// the header strings out, but the packet's Payload aliases the message it
// parsed — in the commit daemon that is an sqs.Message.Body, a read-only
// view of what the queue stores — so a walPacket, and the fragments a
// txnState keeps from it, are only ever read. decodeTxn copies the
// fragments once into a reassembly buffer (a single-packet transaction
// decodes in place) and prov.DecodeBundles copies what it keeps, so nothing
// past the decode aliases a message.

const walMagic = 0x574c

// walHeaderRoom is the room reserved for packet headers when choosing the
// chunk payload size. A first header over it (see walFirst) shortens the
// first packet's payload instead.
const walHeaderRoom = 160

// DefaultChunkSize is the provenance payload carried per WAL message.
const DefaultChunkSize = sqs.MaxMessageSize - walHeaderRoom

// walTxn is the decoded view of one transaction's first packet.
type walTxn struct {
	Txn      uuid.UUID
	Total    int
	TmpKey   string
	FinalKey string
	Size     int64
	Ref      prov.Ref
	Digest   string // hex Merkle root of the closure (may be empty)
}

// walPacket is one decoded WAL message.
type walPacket struct {
	Txn     uuid.UUID
	Seq     int
	First   bool
	Header  walTxn // valid when First
	Payload []byte
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

// walFirst appends the first packet's header to dst and returns it with the
// payload bytes that packet carries and the transaction's packet count for
// a payload of n bytes. Every later packet carries chunkSize bytes. So does
// the first, unless its header is over walHeaderRoom (a long temp key, path
// or digest): then it carries what still fits the queue's message limit.
// The header encodes the packet count, so the two are found together; the
// payload shrinks and the count grows until they agree.
func walFirst(dst []byte, txn uuid.UUID, hdr walTxn, n, chunkSize int) (head []byte, first, total int) {
	first = chunkSize
	for {
		total = 1 // an empty payload still ships its header packet
		if n > first {
			total += (n - first + chunkSize - 1) / chunkSize
		}
		head = appendWALHead(dst, txn, hdr, 0, total)
		fit := max(0, min(chunkSize, sqs.MaxMessageSize-len(head)))
		if fit == first {
			return head, first, total
		}
		first = fit
	}
}

// encodeWALBundles is encodeWAL over the prov encoding of bundles, byte for
// byte. A payload that fits one packet is encoded straight into its message;
// a larger one is encoded once and cut into packets.
func encodeWALBundles(txn uuid.UUID, hdr walTxn, bundles []prov.Bundle, chunkSize int) [][]byte {
	size := 0
	for _, b := range bundles {
		size += b.EncodedSize()
	}
	var room [2 * walHeaderRoom]byte
	head, _, total := walFirst(room[:0], txn, hdr, size, walChunkSize(chunkSize))
	if total > 1 {
		return encodeWAL(txn, hdr, prov.EncodeBundles(bundles), chunkSize)
	}
	msg := append(make([]byte, 0, len(head)+size), head...)
	for _, b := range bundles {
		msg = prov.AppendBundle(msg, b)
	}
	return [][]byte{msg}
}

// walChunkSize is the payload carried per packet for a requested chunk size
// (0 or out of range: DefaultChunkSize).
func walChunkSize(chunkSize int) int {
	if chunkSize <= 0 || chunkSize > sqs.MaxMessageSize-walHeaderRoom {
		return DefaultChunkSize
	}
	return chunkSize
}

// appendWALHead appends the header of packet seq of a total-packet
// transaction to dst.
func appendWALHead(dst []byte, txn uuid.UUID, hdr walTxn, seq, total int) []byte {
	dst = binary.BigEndian.AppendUint16(dst, walMagic)
	dst = append(dst, txn[:]...)
	dst = binary.AppendUvarint(dst, uint64(seq))
	if seq != 0 {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.AppendUvarint(dst, uint64(total))
	dst = appendWALString(dst, hdr.TmpKey)
	dst = appendWALString(dst, hdr.FinalKey)
	dst = binary.AppendUvarint(dst, uint64(hdr.Size))
	dst = append(dst, hdr.Ref.UUID[:]...)
	dst = binary.AppendUvarint(dst, uint64(hdr.Ref.Version))
	return appendWALString(dst, hdr.Digest)
}

// decodeWAL parses one WAL message; the packet's Payload aliases msg.
func decodeWAL(msg []byte) (walPacket, error) {
	var p walPacket
	if len(msg) < 2+16+2 {
		return p, fmt.Errorf("core: short wal packet")
	}
	if binary.BigEndian.Uint16(msg) != walMagic {
		return p, fmt.Errorf("core: bad wal magic")
	}
	msg = msg[2:]
	copy(p.Txn[:], msg[:16])
	msg = msg[16:]
	seq, n := binary.Uvarint(msg)
	if n <= 0 {
		return p, fmt.Errorf("core: bad wal seq")
	}
	p.Seq = int(seq)
	msg = msg[n:]
	if len(msg) < 1 {
		return p, fmt.Errorf("core: truncated wal flags")
	}
	p.First = msg[0] == 1
	msg = msg[1:]
	if p.First {
		total, n := binary.Uvarint(msg)
		if n <= 0 {
			return p, fmt.Errorf("core: bad wal total")
		}
		msg = msg[n:]
		var err error
		var tmp, final string
		if tmp, msg, err = readWALString(msg); err != nil {
			return p, err
		}
		if final, msg, err = readWALString(msg); err != nil {
			return p, err
		}
		size, n := binary.Uvarint(msg)
		if n <= 0 {
			return p, fmt.Errorf("core: bad wal size")
		}
		msg = msg[n:]
		if len(msg) < 16 {
			return p, fmt.Errorf("core: truncated wal uuid")
		}
		var ref prov.Ref
		copy(ref.UUID[:], msg[:16])
		msg = msg[16:]
		ver, n := binary.Uvarint(msg)
		if n <= 0 {
			return p, fmt.Errorf("core: bad wal version")
		}
		msg = msg[n:]
		ref.Version = int(ver)
		var digest string
		if digest, msg, err = readWALString(msg); err != nil {
			return p, err
		}
		p.Header = walTxn{
			Txn:      p.Txn,
			Total:    int(total),
			TmpKey:   tmp,
			FinalKey: final,
			Size:     int64(size),
			Ref:      ref,
			Digest:   digest,
		}
	}
	p.Payload = msg
	return p, nil
}

func appendWALString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readWALString(data []byte) (string, []byte, error) {
	l, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data)-n) < l {
		return "", nil, fmt.Errorf("core: truncated wal string")
	}
	return string(data[n : n+int(l)]), data[n+int(l):], nil
}
