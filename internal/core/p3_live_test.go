package core

import (
	"testing"
	"time"

	"passcloud/internal/sim"
)

// TestP3LiveDaemonCommitsConcurrently runs the commit daemon as a real
// goroutine against a live (scaled) clock, the way the workload benchmarks
// do, and verifies that transactions logged while the daemon runs reach
// their final state without an explicit Settle.
func TestP3LiveDaemonCommitsConcurrently(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.TimeScale = 5000 // fast live clock; behaviour, not latency, is asserted
	cfg.Consistency = sim.Strict
	dep := NewDeployment(sim.NewEnv(cfg))
	p := NewP3(dep, Options{})

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.RunDaemon(stop, time.Second)
	}()

	_, mid, out, midBundles, outBundles := onePipeline(t, 77)
	if err := p.Commit(mid, midBundles); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(out, outBundles); err != nil {
		t.Fatal(err)
	}

	// The daemon should commit both transactions on its own; poll the
	// final object with a real-time deadline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := p.Fetch(out.Path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("commit daemon never committed the transaction")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	<-done

	// Everything acknowledged and cleaned.
	if err := p.Settle(); err != nil {
		t.Fatal(err)
	}
	if keys, _, _ := dep.Store.ListAll(TmpPrefix); len(keys) != 0 {
		t.Fatalf("temp objects left: %v", keys)
	}
	rep, err := CheckCoupling(dep, BackendSDB, out.Path)
	if err != nil || !rep.Coupled {
		t.Fatalf("live-daemon commit not coupled: %+v err=%v", rep, err)
	}
}

// TestP3SettleIsIdempotent verifies that repeated Settle calls (multiple
// daemons drained one after another) are harmless.
func TestP3SettleIsIdempotent(t *testing.T) {
	dep := newDep(t, sim.Eventual)
	p := NewP3(dep, Options{})
	_, _, out, _, outB := onePipeline(t, 31)
	if err := p.Commit(out, outB); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := p.Settle(); err != nil {
			t.Fatalf("settle %d: %v", i, err)
		}
	}
	dep.Settle()
	if _, err := p.Fetch(out.Path); err != nil {
		t.Fatal(err)
	}
}
