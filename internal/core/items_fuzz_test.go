package core

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/prov"
	"passcloud/internal/uuid"
)

// wireGoldenBundles are the bundles of prov's wire-format golden test
// (internal/prov/wire_golden_test.go), rebuilt here because a package's
// test files cannot import another's: every record kind, a multi-byte
// version, a value over 1 KB, a name PASS does not define and an empty
// bundle.
func wireGoldenBundles() []prov.Bundle {
	proc := prov.Ref{UUID: uuid.UUID{0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x46, 0x17, 0x98, 0x19, 0x1a, 0x1b, 0x1c, 0x1d, 0x1e, 0x1f}, Version: 1}
	file := prov.Ref{UUID: uuid.UUID{0xa0, 0xa1, 0xa2, 0xa3, 0xa4, 0xa5, 0x46, 0xa7, 0x98, 0xa9, 0xaa, 0xab, 0xac, 0xad, 0xae, 0xaf}, Version: 300}
	prev := prov.Ref{UUID: file.UUID, Version: 299}
	pipe := prov.Ref{UUID: uuid.UUID{0xf0, 1, 2, 3, 4, 5, 0x46, 7, 0x98, 9, 10, 11, 12, 13, 14, 15}, Version: 2}
	return []prov.Bundle{
		{Ref: proc, Type: prov.Process, Name: "gcc", Records: []prov.Record{
			{Attr: prov.AttrType, Value: "proc"},
			{Attr: prov.AttrName, Value: "gcc"},
			{Attr: prov.AttrArgv, Value: "-O2 -c main.c"},
			{Attr: prov.AttrEnv, Value: "PATH=/bin"},
			{Attr: prov.AttrPID, Value: "4711"},
			{Attr: prov.AttrStartTime, Value: "1262304000"},
		}},
		{Ref: file, Type: prov.File, Name: "mnt/out/main.o", Records: []prov.Record{
			{Attr: prov.AttrType, Value: "file"},
			{Attr: prov.AttrName, Value: "mnt/out/main.o"},
			{Attr: prov.AttrInput, Xref: proc},
			{Attr: prov.AttrPrevVer, Xref: prev},
			{Attr: prov.AttrForkParent, Xref: proc},
			{Attr: prov.AttrExecFile, Xref: prev},
			{Attr: "x-annotation", Value: ""},
			{Attr: prov.AttrEnv, Value: strings.Repeat("0123456789abcdef", 94)}, // spills in the database
		}},
		{Ref: pipe, Type: prov.Pipe},
	}
}

// fuzzItem reads an item from fuzz input: the name, then attribute names
// and values, separated by NUL bytes.
func fuzzItem(data string) sdb.Item {
	fields := strings.Split(data, "\x00")
	it := sdb.Item{Name: fields[0]}
	for i := 1; i < len(fields); i += 2 {
		a := sdb.Attr{Name: fields[i]}
		if i+1 < len(fields) {
			a.Value = fields[i+1]
		}
		it.Attrs = append(it.Attrs, a)
	}
	return it
}

// FuzzBundleFromItem: BundleFromItem, which every SELECT result passes
// through on its way back into bundles, never panics, allocates at most
// 64·len(input)+16 KiB, and inverts ItemsForBundles. The seed corpus is the
// wire golden's bundles and the envelope golden's chained transactions as
// ItemsForBundles writes them, values that would spill left out, and each
// is first checked to decode back to its bundle. On any input it decodes
// with no value over 1 KB, writing the bundle again gives the same item.
func FuzzBundleFromItem(f *testing.F) {
	var bundles []prov.Bundle
	for _, b := range wireGoldenBundles() {
		b.Records = slices.DeleteFunc(slices.Clone(b.Records), func(r prov.Record) bool { return len(r.Value) > sdb.MaxValueLen })
		bundles = append(bundles, b)
	}
	_, txns := ChainedTxns(42, 8, 4)
	for _, set := range txns {
		bundles = append(bundles, set...)
	}
	reqs, err := ItemsForBundles(nil, bundles)
	if err != nil {
		f.Fatal(err)
	}
	for i, req := range reqs {
		want := bundles[i]
		got, _, err := BundleFromItem(nil, sdb.Item{Name: req.Item, Attrs: req.Attrs})
		if err != nil {
			f.Fatalf("bundle %s: %v", want.Ref, err)
		}
		if got.Ref != want.Ref || !slices.Equal(got.Records, want.Records) {
			f.Fatalf("bundle %s decoded as %+v, want %+v", want.Ref, got, want)
		}
		if len(want.Records) > 0 && (got.Type != want.Type || got.Name != want.Name) {
			f.Fatalf("bundle %s decoded as type %v name %q, want %v %q", want.Ref, got.Type, got.Name, want.Type, want.Name)
		}
		var sb strings.Builder
		sb.WriteString(req.Item)
		for _, a := range req.Attrs {
			sb.WriteString("\x00" + a.Name + "\x00" + a.Value)
		}
		f.Add(sb.String())
	}
	f.Fuzz(func(t *testing.T, data string) {
		it := fuzzItem(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b, _, err := BundleFromItem(nil, it)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(data))+16<<10; got > limit {
			t.Fatalf("BundleFromItem of %d bytes allocated %d bytes, over %d", len(data), got, limit)
		}
		if err != nil || slices.ContainsFunc(it.Attrs, func(a sdb.Attr) bool { return len(a.Value) > sdb.MaxValueLen }) {
			return
		}
		reqs, err := ItemsForBundles(nil, []prov.Bundle{b})
		if err != nil {
			t.Fatalf("writing the decoded bundle back: %v", err)
		}
		if back := (sdb.Item{Name: reqs[0].Item, Attrs: reqs[0].Attrs}); back.Name != it.Name || !slices.Equal(back.Attrs, it.Attrs) {
			t.Fatalf("item %+v decoded and written back as %+v", it, back)
		}
	})
}
