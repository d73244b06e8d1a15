package prov

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Wire format. P1 stores the provenance of an object as an S3 object whose
// content is a concatenation of encoded bundles (one per version, appended
// as versions accrue). P3 chunks the same encoding into 8 KB WAL messages.
//
// Layout of one bundle:
//
//	magic   uint16  0x5053 ("PS")
//	uuid    [16]byte
//	version uvarint
//	type    byte
//	name    uvarint-prefixed string
//	nrec    uvarint
//	records:
//	  kind  byte (0 literal, 1 xref)
//	  attr  uvarint-prefixed string
//	  literal: value uvarint-prefixed string
//	  xref:    uuid [16]byte + version uvarint
//
// Buffer ownership. Encoding copies every string into the output, so the
// caller owns what AppendBundle and EncodeBundles return and may keep or
// mutate it; the bundles are only read. Decoding copies every name and value
// out of data (attribute names PASS defines come back as the package's Attr*
// constants), so a decoded Bundle never aliases data: the caller may reuse
// or mutate data as soon as DecodeBundles returns, and may hand it a
// read-only view such as a received queue message body.

const bundleMagic = 0x5053

// ErrCorrupt reports an undecodable provenance payload.
var ErrCorrupt = errors.New("prov: corrupt wire data")

// AppendBundle encodes b onto dst and returns the extended slice.
func AppendBundle(dst []byte, b Bundle) []byte {
	dst = binary.BigEndian.AppendUint16(dst, bundleMagic)
	dst = append(dst, b.Ref.UUID[:]...)
	dst = binary.AppendUvarint(dst, uint64(b.Ref.Version))
	dst = append(dst, byte(b.Type))
	dst = appendString(dst, b.Name)
	dst = binary.AppendUvarint(dst, uint64(len(b.Records)))
	for _, r := range b.Records {
		if r.IsXref() {
			dst = append(dst, 1)
			dst = appendString(dst, r.Attr)
			dst = append(dst, r.Xref.UUID[:]...)
			dst = binary.AppendUvarint(dst, uint64(r.Xref.Version))
		} else {
			dst = append(dst, 0)
			dst = appendString(dst, r.Attr)
			dst = appendString(dst, r.Value)
		}
	}
	return dst
}

// EncodedSize is the exact number of bytes AppendBundle adds for b.
func (b Bundle) EncodedSize() int {
	n := 2 + len(b.Ref.UUID) + uvarintLen(uint64(b.Ref.Version)) + 1 +
		stringSize(b.Name) + uvarintLen(uint64(len(b.Records)))
	for _, r := range b.Records {
		n += 1 + stringSize(r.Attr)
		if r.IsXref() {
			n += len(r.Xref.UUID) + uvarintLen(uint64(r.Xref.Version))
		} else {
			n += stringSize(r.Value)
		}
	}
	return n
}

// EncodeBundles encodes a sequence of bundles into one payload, allocated
// once at its exact size.
func EncodeBundles(bs []Bundle) []byte {
	size := 0
	for _, b := range bs {
		size += b.EncodedSize()
	}
	if size == 0 {
		return nil
	}
	dst := make([]byte, 0, size)
	for _, b := range bs {
		dst = AppendBundle(dst, b)
	}
	return dst
}

// DecodeBundles decodes every bundle in data.
func DecodeBundles(data []byte) ([]Bundle, error) {
	var out []Bundle
	for len(data) > 0 {
		b, rest, err := decodeOne(data)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
		data = rest
	}
	return out, nil
}

func decodeOne(data []byte) (Bundle, []byte, error) {
	var b Bundle
	if len(data) < 2+16+1 {
		return b, nil, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	if binary.BigEndian.Uint16(data) != bundleMagic {
		return b, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	data = data[2:]
	copy(b.Ref.UUID[:], data[:16])
	data = data[16:]
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return b, nil, fmt.Errorf("%w: bad version", ErrCorrupt)
	}
	b.Ref.Version = int(v)
	data = data[n:]
	if len(data) < 1 {
		return b, nil, fmt.Errorf("%w: missing type", ErrCorrupt)
	}
	b.Type = ObjectType(data[0])
	data = data[1:]
	var err error
	if b.Name, data, err = readString(data); err != nil {
		return b, nil, err
	}
	nrec, n := binary.Uvarint(data)
	if n <= 0 {
		return b, nil, fmt.Errorf("%w: bad record count", ErrCorrupt)
	}
	data = data[n:]
	if nrec > 1<<24 {
		return b, nil, fmt.Errorf("%w: absurd record count %d", ErrCorrupt, nrec)
	}
	b.Records = make([]Record, 0, nrec)
	for i := uint64(0); i < nrec; i++ {
		if len(data) < 1 {
			return b, nil, fmt.Errorf("%w: truncated record", ErrCorrupt)
		}
		kind := data[0]
		data = data[1:]
		var rec Record
		if rec.Attr, data, err = readAttrName(data); err != nil {
			return b, nil, err
		}
		switch kind {
		case 0:
			if rec.Value, data, err = readString(data); err != nil {
				return b, nil, err
			}
		case 1:
			if len(data) < 16 {
				return b, nil, fmt.Errorf("%w: truncated xref", ErrCorrupt)
			}
			copy(rec.Xref.UUID[:], data[:16])
			data = data[16:]
			xv, n := binary.Uvarint(data)
			if n <= 0 {
				return b, nil, fmt.Errorf("%w: bad xref version", ErrCorrupt)
			}
			rec.Xref.Version = int(xv)
			data = data[n:]
			if rec.Xref.IsZero() {
				return b, nil, fmt.Errorf("%w: zero xref", ErrCorrupt)
			}
		default:
			return b, nil, fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, kind)
		}
		b.Records = append(b.Records, rec)
	}
	return b, data, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for v.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// stringSize is the number of bytes appendString writes for s.
func stringSize(s string) int {
	return uvarintLen(uint64(len(s))) + len(s)
}

// readBytes returns the uvarint-prefixed field at the head of data, still
// aliasing data, and what follows it.
func readBytes(data []byte) (field, rest []byte, err error) {
	l, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data)-n) < l {
		return nil, nil, fmt.Errorf("%w: truncated string", ErrCorrupt)
	}
	return data[n : n+int(l)], data[n+int(l):], nil
}

func readString(data []byte) (string, []byte, error) {
	field, rest, err := readBytes(data)
	return string(field), rest, err
}

// knownAttrs are the attribute names readAttrName interns.
var knownAttrs = [...]string{
	AttrName, AttrType, AttrInput, AttrPrevVer, AttrForkParent,
	AttrExecFile, AttrArgv, AttrEnv, AttrPID, AttrStartTime,
}

// readAttrName is readString for a record's attribute name: the names PASS
// records come back as the package constants, so decoding a bundle
// allocates nothing for them; any other name is copied out like a value.
func readAttrName(data []byte) (string, []byte, error) {
	field, rest, err := readBytes(data)
	for _, a := range knownAttrs {
		if string(field) == a { // compared in place, no conversion
			return a, rest, err
		}
	}
	return string(field), rest, err
}
