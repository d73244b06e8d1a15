package query

import (
	"runtime"
	"strings"
	"testing"
)

// FuzzParseSpec: ParseSpec, the parser of provctl's query line, never
// panics, and what it allocates is bounded by the line's length — a short
// line cannot reserve a large spec. Allocation is measured as
// TestDecodeBoundsRecordCount measures the wire decoder's.
func FuzzParseSpec(f *testing.F) {
	for _, line := range []string{
		"ref:01234567-89ab-4def-8123-456789abcdef_9223372036854775807 dir=descendants",
		"attr:name=blastall attr:type=proc dir=descendants depth=1 filter=type:file project=bundles workers=8",
		"path:mnt/x dir=versions filter=type:file filter=name:mnt/x filter=attr:pid=7",
		"uuid:01234567-89ab-4def-8123-456789abcdef dir=ancestors depth=-1",
		"ref:01234567-89ab-4def-8123-456789abcdef_0 depth=99999999999999999999 attr:=x",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		tokens := strings.Fields(line)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		spec, err := ParseSpec(tokens)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(line))+16<<10; got > limit {
			t.Fatalf("ParseSpec(%q) allocated %d bytes, over %d", line, got, limit)
		}
		if err == nil {
			_ = spec.Filter.String()
		}
	})
}
