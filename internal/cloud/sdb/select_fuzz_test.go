package sdb

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// FuzzParseSelect: ParseSelect never panics or loops, what it allocates is
// bounded by the expression's length, and a parsed WHERE rendered by
// Node.String parses back to the same tree. Allocation is measured as
// TestDecodeBoundsRecordCount measures the wire decoder's. The seed corpus
// is the query engine's SELECT shapes and the select tests' expressions.
func FuzzParseSelect(f *testing.F) {
	ref := "0a1b2c3d-4e5f-4a6b-8c7d-8e9f0a1b2c3d_5"
	twenty := strings.Repeat("'"+ref+"', ", 19) + "'" + ref + "'"
	for _, expr := range []string{
		// The query engine's templates: item names, names plus the input
		// attribute, full items; an IN batch, a uuid's versions, attribute
		// roots, and a pushed filter fused in.
		"select itemName() from prov where input in (" + twenty + ")",
		"select input from prov where input in ('" + ref + "')",
		"select * from prov where itemName() in ('" + ref + "', '" + ref + "')",
		"select * from prov where itemName() like '0a1b2c3d-4e5f-4a6b-8c7d-8e9f0a1b2c3d_%'",
		"select itemName() from prov where name = 'blastall' and type = 'proc'",
		"select * from prov where (input in ('" + ref + "') and (type = 'file' and name like 'mnt/%'))",
		"select itemName() from `prov` where `name` = 'it''s' limit 1",
	} {
		f.Add(expr)
	}
	for _, set := range [][]string{predicateShapes, badSelects, badInLists} {
		for _, expr := range set {
			f.Add(expr)
		}
	}
	f.Fuzz(func(t *testing.T, expr string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		q, err := ParseSelect(expr)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(expr))+16<<10; got > limit {
			t.Fatalf("ParseSelect(%q) allocated %d bytes, over %d", expr, got, limit)
		}
		if err != nil || q.Where == nil {
			return
		}
		rendered := "select * from prov where " + q.Where.String()
		again, err := ParseSelect(rendered)
		if err != nil {
			t.Fatalf("%q rendered its WHERE as %q, which does not parse: %v", expr, rendered, err)
		}
		if !reflect.DeepEqual(again.Where, q.Where) {
			t.Fatalf("%q rendered its WHERE as %q, which parses to %s", expr, rendered, again.Where)
		}
	})
}
