package core_test

import (
	"context"
	"fmt"
	"maps"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"passcloud/internal/core"
	"passcloud/internal/query"
	"passcloud/internal/sim"
)

// envelopeScript drives every service through the request envelope on one
// seed-42 manual-clock environment, under a 5 % fault plan whose faults on
// mutating ops are half ambiguous, and renders what the envelope decides —
// the simulated time the run took and everything it metered — at two points:
//
//   - serial: after 40 P3 commits at K=4 on one connection and one commit
//     worker, and Q2. One goroutine issues every request, so the seed alone
//     decides this section under any scheduler.
//   - final: after a 4→2 reshard and Q1, Q3 and Q4. The resharder runs its
//     shards on goroutines, and on the manual clock the order in which those
//     draw faults and jitter decides the totals (ROADMAP item 1); the
//     scatter-gather reads drain their shards in shard order on the caller.
//     The script therefore runs on one P with the collector paused, where the
//     scheduler hands the shards out in the same order on all but about one
//     run in a hundred.
func envelopeScript(t *testing.T) (serial, final string) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	cfg := sim.DefaultConfig()
	cfg.Seed = 42
	env := sim.NewEnv(cfg)
	dep := core.NewShardedDeployment(env, core.Topology{WALShards: 4, DBShards: 4})
	env.InstallFaults(sim.UniformPlan(0.05, 0.5))
	e := query.New(dep, core.BackendSDB)

	p := core.NewP3(dep, core.Options{CommitWorkers: 1, ProvConns: 1, DataConns: 1})
	objs, bundles := core.ChainedTxns(42, 40, 4)
	for i := range objs {
		if err := p.Commit(objs[i], bundles[i]); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if err := p.Settle(); err != nil {
		t.Fatalf("settle: %v", err)
	}
	dep.Settle()
	q2, _, err := e.ObjectProvenance(objs[3].Path)
	if err != nil {
		t.Fatalf("Q2: %v", err)
	}
	serial = fmt.Sprintf("results q2=%d\n", len(q2)) + renderEnvelope(env)

	if _, err := dep.Reshard(context.Background(), core.Topology{WALShards: 2, DBShards: 2}); err != nil {
		t.Fatalf("reshard: %v", err)
	}
	dep.Settle()
	q1, _, err := e.AllProvenance(1)
	if err != nil {
		t.Fatalf("Q1: %v", err)
	}
	q3, _, err := e.DirectOutputsOf("stage", 1)
	if err != nil {
		t.Fatalf("Q3: %v", err)
	}
	q4, _, err := e.DescendantsOf("stage", 1)
	if err != nil {
		t.Fatalf("Q4: %v", err)
	}
	final = fmt.Sprintf("results q1=%d q3=%d q4=%d\n", len(q1), len(q3), len(q4)) + renderEnvelope(env)
	return serial, final
}

// renderEnvelope prints the clock and every meter the request envelope
// writes, one sorted line each.
func renderEnvelope(env *sim.Env) string {
	u := env.Meter().Usage()
	var b strings.Builder
	fmt.Fprintf(&b, "now %d\n", env.Now())
	fmt.Fprintf(&b, "machine_sec %.4f\n", u.MachineSec)
	for _, c := range slices.Sorted(maps.Keys(u.Requests)) {
		fmt.Fprintf(&b, "requests %s %d\n", c, u.Requests[c])
	}
	for _, m := range []struct {
		name string
		vals map[string]int64
	}{
		{"ops", u.OpsByKind}, {"bytes", u.BytesByKind},
		{"endpoint_ops", u.OpsByEndpoint}, {"endpoint_faults", u.FaultsByEndpoint},
	} {
		for _, k := range slices.Sorted(maps.Keys(m.vals)) {
			fmt.Fprintf(&b, "%s %s %d\n", m.name, k, m.vals[k])
		}
	}
	return b.String()
}

// TestEnvelopeGoldenSeed42 pins the envelope script's outcome. A line that
// moves means a request was gated, billed, counted, faulted or retried
// differently, or drew its fault and jitter in a different order. The serial
// section must match on every run. The final section must match on one of
// five: a run the scheduler interleaved differently is run again, while a
// changed envelope matches on none. The race detector's scheduler shuffles
// its run queues on purpose, so under it only the serial section is checked.
func TestEnvelopeGoldenSeed42(t *testing.T) {
	golden, err := os.ReadFile("testdata/envelope_seed42.golden")
	if err != nil {
		t.Fatal(err)
	}
	wantSerial, wantFinal, _ := strings.Cut(string(golden), "--- final\n")
	var final string
	for attempt := 0; attempt < 5 && final != wantFinal; attempt++ {
		var serial string
		if serial, final = envelopeScript(t); serial != wantSerial {
			t.Fatalf("serial section moved; got\n%s\nwant\n%s", serial, wantSerial)
		}
		if core.RaceEnabled {
			return
		}
	}
	if final != wantFinal {
		t.Errorf("final section moved on five runs; last\n%s\nwant\n%s", final, wantFinal)
	}
}
