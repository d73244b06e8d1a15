// Package golden compares a program's output with a checked-in golden file,
// testdata/<name>.golden beside the test. Run the test with -update to
// rewrite the file instead of comparing against it.
package golden

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files instead of comparing against them")

// Check fails t at the first line where got differs from
// testdata/<name>.golden. With -update it writes got to that file instead.
func Check(t testing.TB, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run the test with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s line %d moved:\ngot  %s\nwant %s", path, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s has %d lines, got %d", path, len(wantLines), len(gotLines))
}
