package main

import (
	"maps"
	"testing"
)

// TestBootIsSeeded: two sessions booted at one seed replay identically —
// the same object uuids and the same requests, kind for kind.
func TestBootIsSeeded(t *testing.T) {
	const path = "mnt/chal/atlas-y.pgm"
	var sessions [2]*session
	for i := range sessions {
		s, err := boot("challenge", "P3", 42)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	a, b := sessions[0], sessions[1]
	refA, okA := a.col.FileRef(path)
	refB, okB := b.col.FileRef(path)
	if !okA || !okB || refA != refB {
		t.Fatalf("%s: FileRef %v (%v) vs %v (%v)", path, refA, okA, refB, okB)
	}
	opsA, opsB := a.env.Meter().Usage().OpsByKind, b.env.Meter().Usage().OpsByKind
	if !maps.Equal(opsA, opsB) {
		t.Fatalf("requests by kind differ:\n%v\n%v", opsA, opsB)
	}
}
