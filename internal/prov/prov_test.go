package prov

import (
	"strings"
	"testing"
	"testing/quick"

	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

var rnd = sim.NewRand(11)

func ref(t *testing.T, v int) Ref {
	t.Helper()
	return Ref{UUID: uuid.New(rnd), Version: v}
}

func TestRefStringParseRoundTrip(t *testing.T) {
	r := ref(t, 7)
	got, err := ParseRef(r.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("round trip %v -> %v", r, got)
	}
}

func TestParseRefErrors(t *testing.T) {
	for _, s := range []string{"", "nounderscore", "xx_1", "00000000-0000-4000-8000-000000000000_0",
		"00000000-0000-4000-8000-000000000000_x"} {
		if _, err := ParseRef(s); err == nil {
			t.Fatalf("ParseRef(%q) succeeded", s)
		}
	}
}

func TestObjectTypeRoundTrip(t *testing.T) {
	for _, typ := range []ObjectType{File, Process, Pipe} {
		got, err := ParseObjectType(typ.String())
		if err != nil || got != typ {
			t.Fatalf("%v: got %v err %v", typ, got, err)
		}
	}
	if _, err := ParseObjectType("widget"); err == nil {
		t.Fatal("ParseObjectType accepted garbage")
	}
}

// chain builds a linear DAG a <- b <- c ... (each depending on the prior).
func chain(t *testing.T, n int) (*Graph, []Ref) {
	t.Helper()
	g := NewGraph()
	refs := make([]Ref, n)
	for i := 0; i < n; i++ {
		refs[i] = ref(t, 1)
		node := &Node{Ref: refs[i], Type: File}
		if i > 0 {
			node.Records = append(node.Records, Record{Attr: AttrInput, Xref: refs[i-1]})
		}
		if err := g.Add(node); err != nil {
			t.Fatal(err)
		}
	}
	return g, refs
}

func TestGraphAddDuplicate(t *testing.T) {
	g := NewGraph()
	r := ref(t, 1)
	if err := g.Add(&Node{Ref: r}); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(&Node{Ref: r}); err == nil {
		t.Fatal("duplicate add succeeded")
	}
	if err := g.Add(&Node{Ref: Ref{UUID: r.UUID, Version: 0}}); err == nil {
		t.Fatal("version 0 accepted")
	}
}

func TestAncestorAndDescendantClosure(t *testing.T) {
	g, refs := chain(t, 5)
	anc := g.AncestorClosure(refs[4])
	if len(anc) != 4 {
		t.Fatalf("ancestors = %d, want 4", len(anc))
	}
	desc := g.DescendantClosure(refs[0])
	if len(desc) != 4 {
		t.Fatalf("descendants = %d, want 4", len(desc))
	}
	if len(g.AncestorClosure(refs[0])) != 0 {
		t.Fatal("root has ancestors")
	}
}

func TestReachable(t *testing.T) {
	g, refs := chain(t, 3)
	if !g.Reachable(refs[2], refs[0]) {
		t.Fatal("transitively reachable ancestor not found")
	}
	if g.Reachable(refs[0], refs[2]) {
		t.Fatal("reachability went against edge direction")
	}
	if !g.Reachable(refs[1], refs[1]) {
		t.Fatal("self not reachable")
	}
}

func TestCheckAcyclic(t *testing.T) {
	g, refs := chain(t, 4)
	if err := g.CheckAcyclic(); err != nil {
		t.Fatal(err)
	}
	// Close a cycle: refs[0] depends on refs[3].
	n := g.Node(refs[0])
	n.Records = append(n.Records, Record{Attr: AttrInput, Xref: refs[3]})
	if err := g.CheckAcyclic(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not detected: %v", err)
	}
}

func TestDangling(t *testing.T) {
	g, refs := chain(t, 2)
	if d := g.Dangling(); len(d) != 0 {
		t.Fatalf("dangling = %v", d)
	}
	ghost := ref(t, 1)
	n := g.Node(refs[1])
	n.Records = append(n.Records, Record{Attr: AttrInput, Xref: ghost})
	d := g.Dangling()
	if len(d) != 1 || d[0] != ghost {
		t.Fatalf("dangling = %v, want %v", d, ghost)
	}
}

func TestTopoOrderAncestorsFirst(t *testing.T) {
	g, refs := chain(t, 6)
	order := g.TopoOrder()
	pos := make(map[Ref]int)
	for i, n := range order {
		pos[n.Ref] = i
	}
	for i := 1; i < len(refs); i++ {
		if pos[refs[i-1]] > pos[refs[i]] {
			t.Fatalf("ancestor %v after descendant %v", refs[i-1], refs[i])
		}
	}
}

func TestChildrenParents(t *testing.T) {
	g, refs := chain(t, 3)
	if p := g.Parents(refs[1]); len(p) != 1 || p[0] != refs[0] {
		t.Fatalf("parents = %v", p)
	}
	if ch := g.Children(refs[1]); len(ch) != 1 || ch[0] != refs[2] {
		t.Fatalf("children = %v", ch)
	}
}

func TestBundleAncestors(t *testing.T) {
	a, b := ref(t, 1), ref(t, 2)
	bun := Bundle{Records: []Record{
		{Attr: AttrName, Value: "f"},
		{Attr: AttrInput, Xref: a},
		{Attr: AttrInput, Xref: b},
	}}
	if got := bun.Ancestors(); len(got) != 2 {
		t.Fatalf("ancestors = %v", got)
	}
}

func TestWireRoundTripSingle(t *testing.T) {
	b := Bundle{
		Ref:  ref(t, 3),
		Type: Process,
		Name: "blast",
		Records: []Record{
			{Attr: AttrType, Value: "proc"},
			{Attr: AttrArgv, Value: "-db nr"},
			{Attr: AttrInput, Xref: ref(t, 1)},
			{Attr: AttrEnv, Value: "PATH=/bin"},
		},
	}
	got, err := DecodeBundles(EncodeBundles([]Bundle{b}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("decoded %d bundles", len(got))
	}
	assertBundleEqual(t, got[0], b)
}

func assertBundleEqual(t *testing.T, got, want Bundle) {
	t.Helper()
	if got.Ref != want.Ref || got.Type != want.Type || got.Name != want.Name {
		t.Fatalf("header mismatch: %+v vs %+v", got, want)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("record count %d vs %d", len(got.Records), len(want.Records))
	}
	for i := range got.Records {
		if got.Records[i] != want.Records[i] {
			t.Fatalf("record %d: %+v vs %+v", i, got.Records[i], want.Records[i])
		}
	}
}

func TestWireAppendStream(t *testing.T) {
	// P1 appends bundles to an existing provenance object; decoding must
	// recover all of them in order.
	var payload []byte
	var want []Bundle
	for v := 1; v <= 5; v++ {
		b := Bundle{Ref: ref(t, v), Type: File, Name: "f", Records: []Record{{Attr: AttrName, Value: "f"}}}
		payload = AppendBundle(payload, b)
		want = append(want, b)
	}
	got, err := DecodeBundles(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d of %d", len(got), len(want))
	}
	for i := range got {
		assertBundleEqual(t, got[i], want[i])
	}
}

func TestWireRejectsCorruption(t *testing.T) {
	b := Bundle{Ref: ref(t, 1), Type: File, Name: "f", Records: []Record{{Attr: "a", Value: "v"}}}
	good := EncodeBundles([]Bundle{b})
	for _, mutate := range []func([]byte) []byte{
		func(d []byte) []byte { return d[:len(d)-1] },    // truncated
		func(d []byte) []byte { d[0] ^= 0xff; return d }, // bad magic
		func(d []byte) []byte { return append(d, 0x00) }, // trailing garbage
		func(d []byte) []byte { return d[:3] },           // short header
	} {
		data := mutate(append([]byte(nil), good...))
		if _, err := DecodeBundles(data); err == nil {
			t.Fatalf("corruption accepted: %x", data)
		}
	}
}

func TestWireQuickProperty(t *testing.T) {
	f := func(name string, attr string, value string, version uint8, xver uint8) bool {
		b := Bundle{
			Ref:  Ref{UUID: uuid.New(rnd), Version: int(version) + 1},
			Type: File,
			Name: name,
			Records: []Record{
				{Attr: attr, Value: value},
				{Attr: AttrInput, Xref: Ref{UUID: uuid.New(rnd), Version: int(xver) + 1}},
			},
		}
		got, err := DecodeBundles(EncodeBundles([]Bundle{b}))
		if err != nil || len(got) != 1 {
			return false
		}
		g := got[0]
		return g.Ref == b.Ref && g.Name == b.Name && len(g.Records) == 2 &&
			g.Records[0] == b.Records[0] && g.Records[1] == b.Records[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordSize(t *testing.T) {
	lit := Record{Attr: "name", Value: "foo"}
	xref := Record{Attr: "input", Xref: ref(t, 1)}
	if lit.Size() <= 0 || xref.Size() <= 0 {
		t.Fatal("non-positive record size")
	}
	if !xref.IsXref() || lit.IsXref() {
		t.Fatal("IsXref misclassifies")
	}
}
