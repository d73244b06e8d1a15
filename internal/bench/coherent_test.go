package bench

import "testing"

// coherentCheck runs one coherent-reads configuration and applies the
// invariants that must hold at any scale: the subscribed and flush-per-round
// strategies match the uncached baseline byte for byte, the stale negative
// control demonstrably does not, the coherence machinery actually fired, and
// every pushdown case streams identical results while examining no more
// items (strictly fewer in at least one case).
func coherentCheck(t *testing.T, c CoherentReadsConfig) CoherentReadsRun {
	t.Helper()
	run, err := CoherentReads(c)
	if err != nil {
		t.Fatal(err)
	}
	base := run.Modes["uncached"]
	if base.Digest == "" || base.Results == 0 {
		t.Fatalf("uncached baseline empty: %+v", base)
	}
	for _, mode := range []string{"subscribed", "flush"} {
		if d := run.Modes[mode].Digest; d != base.Digest {
			t.Errorf("%s diverged from uncached: %s vs %s", mode, d, base.Digest)
		}
	}
	if run.Modes["stale"].Digest == base.Digest {
		t.Error("stale negative control matched the baseline — the workload is not exercising coherence")
	}
	sub := run.Modes["subscribed"]
	if sub.Invalidations == 0 {
		t.Error("subscribed cache recorded no invalidations")
	}
	if sub.CoherenceHits == 0 {
		t.Error("subscribed cache recorded no coherence hits")
	}
	if run.CommitNotices == 0 {
		t.Error("no commit notices were published")
	}
	if len(run.Pushdown) == 0 {
		t.Fatal("no pushdown cases ran")
	}
	strict := false
	for _, pc := range run.Pushdown {
		if !pc.Identical {
			t.Errorf("pushdown case %s changed the result stream", pc.Name)
		}
		if pc.ExaminedOn > pc.ExaminedOff {
			t.Errorf("pushdown case %s examined MORE items: %d on vs %d off",
				pc.Name, pc.ExaminedOn, pc.ExaminedOff)
		}
		if pc.ExaminedOn < pc.ExaminedOff {
			strict = true
		}
		t.Logf("pushdown %-18s examined %d -> %d, selects %d -> %d (%s)",
			pc.Name, pc.ExaminedOff, pc.ExaminedOn, pc.SelectsOff, pc.SelectsOn, pc.Plan)
	}
	if !strict {
		t.Error("no pushdown case reduced items examined")
	}
	t.Logf("read cost: uncached %.4fs, subscribed %.4fs (%.2fx), flush %.4fs; sub hits=%d inval=%d",
		base.SimSeconds, sub.SimSeconds, run.CostRatio("subscribed"),
		run.Modes["flush"].SimSeconds, sub.CoherenceHits, sub.Invalidations)
	return run
}

// TestCoherentReadsIdentical is the always-on correctness check at small
// scale.
func TestCoherentReadsIdentical(t *testing.T) {
	coherentCheck(t, CoherentReadsConfig{Seed: 23, Rounds: 3, TxnsPerRound: 4, Depth: 3})
}

// TestCoherentReadsGate is the acceptance gate at scale: under continuous
// ingest the warm subscribed cache must serve the byte-identical query
// stream at >= 2x lower simulated read cost than the uncached baseline, and
// every pushdown case must reduce what the SELECTs examine.
func TestCoherentReadsGate(t *testing.T) {
	if testing.Short() {
		t.Skip("large-N benchmark")
	}
	run := coherentCheck(t, CoherentReadsConfig{
		Seed: 23, Rounds: 10, TxnsPerRound: 24, Depth: 6, Workers: 8, DBShards: 4,
	})
	if r := run.CostRatio("subscribed"); r < 2 {
		t.Errorf("subscribed read cost ratio %.2fx, want >= 2x", r)
	}
	for _, pc := range run.Pushdown {
		if pc.ExaminedOn >= pc.ExaminedOff {
			t.Errorf("pushdown case %s did not reduce items examined at scale: %d on vs %d off",
				pc.Name, pc.ExaminedOn, pc.ExaminedOff)
		}
	}
}
