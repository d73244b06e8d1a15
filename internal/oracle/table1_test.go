package oracle

import (
	"fmt"
	"strings"
	"testing"

	"passcloud/internal/core"
)

// TestTable1MatchesPaper derives Table 1 at three seeds: every cell of every
// row, and the violation behind each "no" cell the paper explains.
func TestTable1MatchesPaper(t *testing.T) {
	want := map[string][4]bool{ // coupling, ordering, query, persistence
		"S3fs": {false, false, false, false},
		"P1":   {false, true, false, true},
		"P2":   {false, true, true, true},
		"P3":   {true, true, true, true},
	}
	// why names, per protocol and property, what its violation must say.
	why := map[string]map[string]string{
		"S3fs": {"coupling": "records no provenance", "causal-order": "records no provenance", "query": "records no provenance", "persistence": "records no provenance"},
		"P1":   {"coupling": "crash at " + string(core.CrashP1BeforeData), "query": "find-by-attribute took"},
		"P2":   {"coupling": "crash at " + string(core.CrashP2BeforeData)},
	}
	for _, seed := range []int64{7, 42, 977} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rows, err := Table1(seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				if got := [4]bool{r.Holds("coupling"), r.Holds("causal-order"), r.Holds("query"), r.Holds("persistence")}; got != want[r.Protocol] {
					t.Errorf("%s: got %v, want %v", r.Protocol, got, want[r.Protocol])
				}
				if len(r.Why) != len(why[r.Protocol]) {
					t.Errorf("%s: %d violations %v, want %d", r.Protocol, len(r.Why), r.Why, len(why[r.Protocol]))
				}
				for _, v := range r.Why {
					if w := why[r.Protocol][v.Property]; w != "" && !strings.Contains(v.Detail, w) {
						t.Errorf("%s %s: %q, want it to say %q", r.Protocol, v.Property, v.Detail, w)
					}
				}
			}
		})
	}
}
