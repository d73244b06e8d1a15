package prov

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// splitAt cuts data at the offsets cuts spells, two little-endian bytes
// each, taken modulo len(data)+1. Repeated offsets yield empty fragments.
func splitAt(data, cuts []byte) [][]byte {
	var at []int
	for i := 0; i+1 < len(cuts); i += 2 {
		at = append(at, int(binary.LittleEndian.Uint16(cuts[i:]))%(len(data)+1))
	}
	slices.Sort(at)
	var frags [][]byte
	lo := 0
	for _, hi := range at {
		frags = append(frags, data[lo:hi])
		lo = hi
	}
	return append(frags, data[lo:])
}

// FuzzDecodeBundles: decoding a payload cut into fragments anywhere is
// decoding it whole — the same bundles, or an error both ways — and never
// panics. One Decoder that decodes the golden payload and then the input, or
// the input and then the golden payload, returns for the second what a fresh
// decode does, and the strings a caller kept from the first (all that P3's
// put requests keep) still spell what the first decoded to. The seed corpus
// is the golden payload cut at every byte offset, plus a few many-fragment
// cuts with empty fragments among them.
func FuzzDecodeBundles(f *testing.F) {
	golden := EncodeBundles(goldenBundles())
	for at := 0; at <= len(golden); at++ {
		f.Add(golden, binary.LittleEndian.AppendUint16(nil, uint16(at)))
	}
	for _, step := range []int{1, 7, 300} {
		var cuts []byte
		for at := 0; at <= len(golden); at += step {
			cuts = binary.LittleEndian.AppendUint16(cuts, uint16(at))
			cuts = binary.LittleEndian.AppendUint16(cuts, uint16(at))
		}
		f.Add(golden, cuts)
	}
	f.Add(golden[:len(golden)-1], []byte{0x10, 0x00, 0x20, 0x00})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		whole, werr := DecodeBundles(data)
		frags := splitAt(data, cuts)
		split, serr := DecodeBundles(frags...)
		if (werr == nil) != (serr == nil) {
			t.Fatalf("whole: %v; in %d fragments: %v", werr, len(frags), serr)
		}
		if !reflect.DeepEqual(whole, split) {
			t.Fatalf("in %d fragments decoded\n %+v, whole\n %+v", len(frags), split, whole)
		}
		var dec Decoder
		for _, pair := range [][2][][]byte{{{golden}, frags}, {frags, {golden}}} {
			first, _ := dec.Decode(pair[0]...)
			kept := keptStrings(first)
			second, err := dec.Decode(pair[1]...)
			fresh, ferr := DecodeBundles(pair[1]...)
			if (err == nil) != (ferr == nil) || !reflect.DeepEqual(second, fresh) {
				t.Fatalf("a reused decoder decoded\n %+v (%v), a fresh one\n %+v (%v)", second, err, fresh, ferr)
			}
			if again, _ := DecodeBundles(pair[0]...); !slices.Equal(kept, keptStrings(again)) {
				t.Fatalf("the strings kept from the first decode changed with the second")
			}
		}
	})
}

// keptStrings lists every name and value of bundles, as a caller that
// keeps strings and not the bundles holds them.
func keptStrings(bundles []Bundle) []string {
	var out []string
	for _, b := range bundles {
		out = append(out, b.Name)
		for _, r := range b.Records {
			out = append(out, r.Attr, r.Value)
		}
	}
	return out
}

// TestDecodeBoundsRecordCount: a record count the remaining bytes cannot
// hold is refused before anything is reserved for it. A 25-byte payload
// claiming 1<<24 records once reserved 16.7M records (896 MB).
func TestDecodeBoundsRecordCount(t *testing.T) {
	data := binary.BigEndian.AppendUint16(nil, bundleMagic)
	data = append(data, make([]byte, 16)...) // zero uuid
	data = append(data, 1, byte(Process), 0) // version 1, type, empty name
	data = binary.AppendUvarint(data, 1<<24) // record count
	if len(data) != 25 {
		t.Fatalf("payload is %d bytes, want 25", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeBundles(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 25-byte payload claiming 1<<24 records decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("refusing it allocated %d bytes, want under 1 MiB", got)
	}
}
