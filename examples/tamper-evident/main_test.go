package main

import (
	"regexp"
	"strings"
	"testing"

	"passcloud/internal/golden"
)

// rootHex is the witnessed head's root. It still moves with the simulated
// time each leaf was sequenced at, so the golden pins every line but it.
var rootHex = regexp.MustCompile(`root [0-9a-f]+…`)

// TestRun pins the session. run itself fails unless every inclusion proof
// verifies and the audit's one divergence names the rewritten item.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out, 42); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "tamper-evident", rootHex.ReplaceAllString(out.String(), "root <sim-time dependent>…"))
}
