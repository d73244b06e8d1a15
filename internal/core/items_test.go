package core

import (
	"strings"
	"testing"
	"testing/quick"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/cloud/store"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

var itemsRnd = sim.NewRand(55)

func someRef() prov.Ref {
	return prov.Ref{UUID: uuid.New(itemsRnd), Version: 1}
}

func TestItemRoundTripPreservesBundle(t *testing.T) {
	dep := newDep(t, sim.Strict)
	anc := someRef()
	b := prov.Bundle{
		Ref:  someRef(),
		Type: prov.Process,
		Name: "gcc",
		Records: []prov.Record{
			{Attr: prov.AttrType, Value: "proc"},
			{Attr: prov.AttrName, Value: "gcc"},
			{Attr: prov.AttrArgv, Value: "-O2"},
			{Attr: prov.AttrArgv, Value: "-c"}, // multi-valued attribute
			{Attr: prov.AttrInput, Xref: anc},
		},
	}
	reqs, err := ItemsForBundles(dep.Store, []prov.Bundle{b})
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 || reqs[0].Item != b.Ref.String() {
		t.Fatalf("reqs = %+v", reqs)
	}
	got, _, err := BundleFromItem(nil, sdb.Item{Name: reqs[0].Item, Attrs: reqs[0].Attrs})
	if err != nil {
		t.Fatal(err)
	}
	if got.Ref != b.Ref || got.Type != b.Type || got.Name != b.Name {
		t.Fatalf("header: %+v vs %+v", got, b)
	}
	if len(got.Records) != len(b.Records) {
		t.Fatalf("records: %d vs %d", len(got.Records), len(b.Records))
	}
	var argv []string
	var inputs []prov.Ref
	for _, r := range got.Records {
		switch r.Attr {
		case prov.AttrArgv:
			argv = append(argv, r.Value)
		case prov.AttrInput:
			inputs = append(inputs, r.Xref)
		}
	}
	if len(argv) != 2 || len(inputs) != 1 || inputs[0] != anc {
		t.Fatalf("argv=%v inputs=%v", argv, inputs)
	}
}

func TestBundleFromItemRejectsBadNames(t *testing.T) {
	for _, name := range []string{"", "noversion", "x_y"} {
		if _, _, err := BundleFromItem(nil, sdb.Item{Name: name}); err == nil {
			t.Fatalf("item name %q accepted", name)
		}
	}
	// A malformed xref value must error, not silently drop the edge.
	ref := someRef()
	_, _, err := BundleFromItem(nil, sdb.Item{Name: ref.String(), Attrs: []sdb.Attr{
		{Name: prov.AttrInput, Value: "not-a-ref"},
	}})
	if err == nil {
		t.Fatal("malformed xref accepted")
	}
}

func TestItemsForBundlesQuickRoundTrip(t *testing.T) {
	dep := newDep(t, sim.Strict)
	f := func(name, value string, ver uint8) bool {
		if len(value) > sdb.MaxValueLen {
			value = value[:sdb.MaxValueLen]
		}
		b := prov.Bundle{
			Ref:  prov.Ref{UUID: uuid.New(itemsRnd), Version: int(ver) + 1},
			Type: prov.File,
			Name: name,
			Records: []prov.Record{
				{Attr: prov.AttrType, Value: "file"},
				{Attr: prov.AttrName, Value: name},
				{Attr: "custom", Value: value},
			},
		}
		reqs, err := ItemsForBundles(dep.Store, []prov.Bundle{b})
		if err != nil {
			return false
		}
		got, _, err := BundleFromItem(nil, sdb.Item{Name: reqs[0].Item, Attrs: reqs[0].Attrs})
		if err != nil || got.Ref != b.Ref || got.Name != name {
			return false
		}
		for _, r := range got.Records {
			if r.Attr == "custom" && r.Value != value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestResolveValueInlinePassThrough(t *testing.T) {
	dep := newDep(t, sim.Strict)
	got, err := ResolveValue(dep.Store, "plain value")
	if err != nil || got != "plain value" {
		t.Fatalf("got %q err %v", got, err)
	}
	// A marker pointing nowhere must error.
	if _, err := ResolveValue(dep.Store, SpillMarker+"pval/ghost"); err == nil {
		t.Fatal("dangling spill pointer resolved")
	}
}

func TestP3SpillsThroughCommitDaemon(t *testing.T) {
	// A >1KB value travels the full P3 path: chunked over the WAL,
	// spilled by the commit daemon, resolvable afterwards.
	dep := newDep(t, sim.Strict)
	p := NewP3(dep, Options{})
	big := strings.Repeat("V", sdb.MaxValueLen*2)
	ref := someRef()
	b := prov.Bundle{
		Ref: ref, Type: prov.Process, Name: "bigproc",
		Records: []prov.Record{
			{Attr: prov.AttrType, Value: "proc"},
			{Attr: prov.AttrEnv, Value: big},
		},
	}
	if err := p.Commit(FileObject{Path: "mnt/f", Size: 64, Ref: ref}, []prov.Bundle{b}); err != nil {
		t.Fatal(err)
	}
	if err := p.Settle(); err != nil {
		t.Fatal(err)
	}
	it, err := dep.DB.GetAttributes(ref.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range it.Attrs {
		if a.Name == prov.AttrEnv {
			resolved, err := ResolveValue(dep.Store, a.Value)
			if err != nil {
				t.Fatal(err)
			}
			if resolved != big {
				t.Fatalf("resolved %d bytes, want %d", len(resolved), len(big))
			}
			return
		}
	}
	t.Fatal("env attribute lost through the WAL")
}

// ResolveValue fetches a possibly spilled attribute value: inline values
// return as-is, SpillMarker pointers are fetched from the store.
func ResolveValue(st *store.Store, value string) (string, error) {
	if len(value) < len(SpillMarker) || value[:len(SpillMarker)] != SpillMarker {
		return value, nil
	}
	o, err := st.Get(value[len(SpillMarker):])
	if err != nil {
		return "", err
	}
	return string(o.Data), nil
}
