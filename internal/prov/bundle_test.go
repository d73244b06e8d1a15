package prov

import "testing"

// TestNodeBundleShares pins Node.Bundle's aliasing contract: the bundle
// shares the node's records without copying, appending to the bundle's
// records leaves the node untouched, and records the node gains later do
// not show in the bundle.
func TestNodeBundleShares(t *testing.T) {
	n := &Node{Ref: Ref{UUID: [16]byte{1}, Version: 1}, Type: File, Name: "f"}
	n.Records = make([]Record, 0, 8)
	n.Records = append(n.Records, Record{Attr: AttrType, Value: "file"}, Record{Attr: AttrName, Value: "f"})
	b := n.Bundle()
	if &b.Records[0] != &n.Records[0] {
		t.Fatal("bundle copied the node's records")
	}
	grown := append(b.Records, Record{Attr: AttrArgv, Value: "x"})
	n.Records = append(n.Records, Record{Attr: AttrInput, Xref: Ref{UUID: [16]byte{2}, Version: 1}})
	if n.Records[2].Attr != AttrInput || grown[2].Attr != AttrArgv {
		t.Fatalf("an append through the bundle reached the node: node %v, bundle %v", n.Records, grown)
	}
	if len(b.Records) != 2 {
		t.Fatalf("bundle shows %d records, want the 2 it was taken with", len(b.Records))
	}
	if raceEnabled {
		return // the race detector's instrumentation allocates
	}
	if a := testing.AllocsPerRun(100, func() { b = n.Bundle() }); a != 0 {
		t.Errorf("Node.Bundle allocates %v times, want 0", a)
	}
}
