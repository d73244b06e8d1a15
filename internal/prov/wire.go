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
// Buffer ownership. Encoding copies every string into the output, which
// the caller owns; the bundles are only read. Decoding reads its input in
// place, in any number of fragments, read-only views such as queue message
// bodies included, and copies every name and value out: a decoded Bundle
// never aliases its input (the database interns what it is given, and an
// alias would pin a whole message). Repeats share a copy: names PASS
// defines come back as the Attr* constants, and a name or value equal to
// the previous bundle's at the same place as that bundle's string.

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

// LeadingRef returns the ref of the first bundle in b, an encoding that may
// be cut short anywhere after that ref.
func LeadingRef(b []byte) (Ref, bool) {
	var join []byte
	var err error
	d := decoder{cur: b, left: len(b), join: &join, err: &err}
	r := d.ref()
	return r, err == nil
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

// DecodeBundles decodes every bundle in the concatenation of frags, read in
// place: DecodeBundles(a, b) returns what DecodeBundles(append(a, b...)) does.
func DecodeBundles(frags ...[]byte) ([]Bundle, error) {
	var join []byte
	var err error
	d := decoder{rest: frags, join: &join, err: &err}
	for _, f := range frags {
		d.left += len(f)
	}
	var out []Bundle
	prev := &Bundle{}
	for d.left > 0 {
		b := d.bundle(prev)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
		prev = &out[len(out)-1]
	}
	return out, nil
}

// decoder reads fragments in place, joining a field that straddles two in
// *join. The first error sticks in *err; reads after it return zero. (Both
// are pointers: a slice or error stored in the decoder would move the
// caller's fragment list to the heap.)
type decoder struct {
	cur  []byte   // unread bytes of the fragment being read
	rest [][]byte // fragments not yet started
	left int      // unread bytes in cur and rest
	join *[]byte
	err  *error
}

func (d *decoder) fail(format string, args ...any) {
	if *d.err == nil {
		*d.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

// take returns the next n bytes, valid until the next read.
func (d *decoder) take(n int) []byte {
	if *d.err != nil || n > d.left {
		d.fail("truncated")
		return nil
	}
	d.left -= n
	d.next()
	if n <= len(d.cur) {
		field := d.cur[:n]
		d.cur = d.cur[n:]
		return field
	}
	join := (*d.join)[:0]
	for len(join) < n {
		d.next()
		k := min(n-len(join), len(d.cur))
		join = append(join, d.cur[:k]...)
		d.cur = d.cur[k:]
	}
	*d.join = join
	return join
}

// next moves to the next non-empty fragment once the current one is read.
func (d *decoder) next() {
	for len(d.cur) == 0 && len(d.rest) > 0 {
		d.cur = d.rest[0]
		d.rest = d.rest[1:]
	}
}

func (d *decoder) byte() byte {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

// uvarint reads a varint a byte at a time, as binary.Uvarint would.
func (d *decoder) uvarint() (v uint64) {
	for s := uint(0); s < 64; s += 7 {
		b := d.byte()
		v |= uint64(b&0x7f) << s
		if b < 0x80 && (s < 63 || b < 2) {
			return v
		}
	}
	d.fail("bad varint")
	return 0
}

// field reads a uvarint-prefixed string field.
func (d *decoder) field() []byte {
	l := d.uvarint()
	return d.take(int(min(l, uint64(d.left)+1))) // over d.left: truncated
}

// ref decodes a bundle's magic and ref.
func (d *decoder) ref() (r Ref) {
	head := d.take(2 + len(r.UUID))
	if head == nil || binary.BigEndian.Uint16(head) != bundleMagic {
		d.fail("bad header")
		return r
	}
	copy(r.UUID[:], head[2:])
	r.Version = int(d.uvarint())
	return r
}

// bundle decodes the next bundle, reusing prev's strings for its name and
// for a value at the same record index and attribute when they are equal.
func (d *decoder) bundle(prev *Bundle) Bundle {
	var b Bundle
	if b.Ref = d.ref(); *d.err != nil {
		return b
	}
	b.Type = ObjectType(d.byte())
	b.Name = reuse(d.field(), prev.Name)
	if nrec := d.uvarint(); nrec > uint64(d.left/3) { // a record takes at least 3 bytes
		d.fail("%d records in %d bytes", nrec, d.left)
	} else if *d.err == nil {
		b.Records = make([]Record, nrec)
	}
	for i := 0; i < len(b.Records) && *d.err == nil; i++ {
		rec := &b.Records[i]
		kind := d.byte()
		rec.Attr = d.attr()
		switch kind {
		case 0:
			if value := d.field(); i < len(prev.Records) && prev.Records[i].Attr == rec.Attr {
				rec.Value = reuse(value, prev.Records[i].Value)
			} else {
				rec.Value = string(value)
			}
		case 1:
			copy(rec.Xref.UUID[:], d.take(len(rec.Xref.UUID)))
			if rec.Xref.Version = int(d.uvarint()); rec.Xref.IsZero() {
				d.fail("zero xref")
			}
		default:
			d.fail("unknown record kind %d", kind)
		}
	}
	return b
}

// reuse returns s when field spells it, else a copy of field.
func reuse(field []byte, s string) string {
	if string(field) != s { // compared in place, no conversion
		s = string(field)
	}
	return s
}

// knownAttrs are the attribute names attr interns.
var knownAttrs = [...]string{
	AttrName, AttrType, AttrInput, AttrPrevVer, AttrForkParent,
	AttrExecFile, AttrArgv, AttrEnv, AttrPID, AttrStartTime,
}

// attr reads a record's attribute name: the names PASS records come back
// as the package constants, so decoding a bundle allocates nothing for
// them; any other name is copied out like a value.
func (d *decoder) attr() string {
	field := d.field()
	for _, a := range knownAttrs {
		if string(field) == a {
			return a
		}
	}
	return string(field)
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
