package bench

import "testing"

// TestBigQueryIndexSpeedup is the acceptance check for the indexed SELECT
// engine: on a 100k-item domain, every Table-5-style query must cost at
// least 10× less simulated time through the indexes than through the seed's
// full scan, with identical results. Simulated times are deterministic
// (manual clock, strict consistency, fixed seed), so the ratio is exact.
func TestBigQueryIndexSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("large-N benchmark")
	}
	const (
		items  = 100_000
		chains = 64
		depth  = 12
	)
	indexed, err := BigQuery(21, items, chains, depth, false)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := BigQuery(21, items, chains, depth, true)
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"equality", "versions", "direct-out", "descendants"} {
		ci, cs := indexed.Cell(name), scan.Cell(name)
		if ci.Query == "" || cs.Query == "" {
			t.Fatalf("missing cell %q", name)
		}
		// Identical results and request counts: the index changes the access
		// path, not SELECT semantics or billing.
		if ci.Results != cs.Results || ci.Results == 0 {
			t.Errorf("%s: results indexed=%d scan=%d, want equal and nonzero", name, ci.Results, cs.Results)
		}
		if ci.Ops != cs.Ops {
			t.Errorf("%s: ops indexed=%d scan=%d, want equal", name, ci.Ops, cs.Ops)
		}
		if cs.SimSeconds < 10*ci.SimSeconds {
			t.Errorf("%s: simulated %0.3fs scan vs %0.3fs indexed — speedup %.1fx, want ≥10x",
				name, cs.SimSeconds, ci.SimSeconds, cs.SimSeconds/ci.SimSeconds)
		}
	}

	// Expected result shapes: every chain head is a direct output; the
	// whole chain set is the descendant closure.
	if got := indexed.Cell("direct-out").Results; got != chains {
		t.Errorf("direct-out results = %d, want %d", got, chains)
	}
	if got := indexed.Cell("descendants").Results; got != chains*depth {
		t.Errorf("descendants results = %d, want %d", got, chains*depth)
	}
}
