package main

import (
	"strings"
	"testing"

	"passcloud/internal/golden"
)

func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out, 42); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "faulty-data", out.String())
}
