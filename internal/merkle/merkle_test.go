package merkle

import (
	"testing"

	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

var rnd = sim.NewRand(77)

func someBundles(n int) []prov.Bundle {
	out := make([]prov.Bundle, n)
	for i := range out {
		out[i] = prov.Bundle{
			Ref:  prov.Ref{UUID: uuid.New(rnd), Version: 1},
			Type: prov.File,
			Name: "f",
			Records: []prov.Record{
				{Attr: prov.AttrName, Value: "f"},
			},
		}
	}
	return out
}

func TestRootDeterministic(t *testing.T) {
	bs := someBundles(7)
	if RootOfBundles(bs) != RootOfBundles(bs) {
		t.Fatal("root not deterministic")
	}
}

func TestRootDetectsTamper(t *testing.T) {
	bs := someBundles(8)
	root := RootOfBundles(bs)
	bs[3].Records = append(bs[3].Records, prov.Record{Attr: "forged", Value: "x"})
	if RootOfBundles(bs) == root {
		t.Fatal("tampered bundle kept the same root")
	}
}

func TestRootDetectsMissingAncestor(t *testing.T) {
	bs := someBundles(5)
	root := RootOfBundles(bs)
	if RootOfBundles(bs[1:]) == root {
		t.Fatal("dropping a bundle kept the same root")
	}
}

func TestRootDetectsReordering(t *testing.T) {
	bs := someBundles(4)
	root := RootOfBundles(bs)
	bs[0], bs[1] = bs[1], bs[0]
	if RootOfBundles(bs) == root {
		t.Fatal("reordering kept the same root")
	}
}

func TestEmptyAndSingle(t *testing.T) {
	var none []Digest
	if Root(none) == (Digest{}) {
		t.Fatal("empty root should not be the zero digest")
	}
	one := []Digest{HashBundle(someBundles(1)[0])}
	if Root(one) != one[0] {
		t.Fatal("single-leaf root should be the leaf")
	}
}
