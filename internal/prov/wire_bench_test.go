package prov

import (
	"strings"
	"testing"

	"passcloud/internal/uuid"
)

// benchBundles is a bulk-ingest-shaped transaction: one process and n-1
// versions of a file, each about 1 KB on the wire.
func benchBundles(n int) []Bundle {
	pad := strings.Repeat("e", 900)
	proc := Ref{UUID: uuid.New(rnd), Version: 1}
	file := uuid.New(rnd)
	bs := []Bundle{{Ref: proc, Type: Process, Name: "bulkprog", Records: []Record{
		{Attr: AttrType, Value: "proc"}, {Attr: AttrName, Value: "bulkprog"}, {Attr: AttrEnv, Value: pad},
	}}}
	for v := 1; v < n; v++ {
		recs := []Record{
			{Attr: AttrType, Value: "file"}, {Attr: AttrName, Value: "mnt/bulk/000001"},
			{Attr: AttrInput, Xref: proc}, {Attr: AttrEnv, Value: pad},
		}
		if v > 1 {
			recs = append(recs, Record{Attr: AttrPrevVer, Xref: Ref{UUID: file, Version: v - 1}})
		}
		bs = append(bs, Bundle{Ref: Ref{UUID: file, Version: v}, Type: File, Name: "mnt/bulk/000001", Records: recs})
	}
	return bs
}

// TestWireAllocationCeilings pins the allocation diet: one allocation per
// encode, at the exact size however small the bundles; a decode allocates
// for the values it copies out, never for the attribute names PASS defines.
func TestWireAllocationCeilings(t *testing.T) {
	for _, n := range []int{1, 3, 64} {
		bs := benchBundles(n)
		if got := testing.AllocsPerRun(20, func() { EncodeBundles(bs) }); got != 1 {
			t.Errorf("EncodeBundles(%d bundles) = %v allocations, want 1", n, got)
		}
		want := 0
		for _, b := range bs {
			want += b.EncodedSize()
		}
		if out := EncodeBundles(bs); len(out) != want || cap(out) != want {
			t.Errorf("EncodeBundles(%d bundles): len %d cap %d, want both %d", n, len(out), cap(out), want)
		}
	}
	r := Ref{UUID: uuid.New(rnd), Version: 12345}
	if got := testing.AllocsPerRun(100, func() { _ = r.String() }); got != 1 {
		t.Errorf("Ref.String = %v allocations, want 1", got)
	}

	got, _ := DecodeBundles(EncodeBundles([]Bundle{{Ref: r, Records: []Record{{Attr: "x-site-defined", Value: "v"}}}}))
	if got[0].Records[0].Attr != "x-site-defined" {
		t.Errorf("a name PASS does not define decoded as %q", got[0].Records[0].Attr)
	}
	// Each slices.Grow that sizes a slice allocates, under the race detector,
	// the scratch it otherwise does without: one for the bundle slice and
	// one per record slab.
	grow := 0
	if raceEnabled {
		grow = 1
	}

	// One bundle: the result slice, the record slab, the name, and one per
	// literal value — nothing for "type", "name", "input", "env".
	one := EncodeBundles(benchBundles(2)[1:])
	if got, want := testing.AllocsPerRun(100, func() {
		if _, err := DecodeBundles(one); err != nil {
			t.Fatal(err)
		}
	}), float64(6+2*grow); got != want {
		t.Errorf("DecodeBundles(one bundle, three literal values) = %v allocations, want %v", got, want)
	}
	// 64 bundles: the bundle slice, a few record slabs and the 8 distinct
	// strings; a reused Decoder allocates the strings alone.
	payload := EncodeBundles(benchBundles(64))
	if got, want := testing.AllocsPerRun(100, func() { DecodeBundles(payload) }), float64(12+4*grow); got > want {
		t.Errorf("DecodeBundles(64 bundles) = %v allocations, want at most %v", got, want)
	}
	var dec Decoder
	if got := testing.AllocsPerRun(100, func() { dec.Decode(payload) }); got != 8 {
		t.Errorf("a reused Decoder's Decode(64 bundles) = %v allocations, want 8", got)
	}
}

// Typed sinks keep the compiler from discarding the measured calls without
// boxing their results.
var (
	sinkBytes   []byte
	sinkBundles []Bundle
	sinkString  string
)

func BenchmarkEncodeBundles(b *testing.B) {
	bs := benchBundles(64)
	b.ReportAllocs()
	b.SetBytes(int64(len(EncodeBundles(bs))))
	for b.Loop() {
		sinkBytes = EncodeBundles(bs)
	}
}

func BenchmarkDecodeBundles(b *testing.B) {
	payload := EncodeBundles(benchBundles(64))
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for b.Loop() {
		var err error
		if sinkBundles, err = DecodeBundles(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRefString(b *testing.B) {
	r := Ref{UUID: uuid.New(rnd), Version: 42}
	b.ReportAllocs()
	for b.Loop() {
		sinkString = r.String()
	}
}
