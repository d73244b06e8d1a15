package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunExecutesEverythingAndReturnsFirstError(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("boom")
	tasks := make([]func() error, 50)
	for i := range tasks {
		i := i
		tasks[i] = func() error {
			ran.Add(1)
			if i%10 == 3 {
				return fmt.Errorf("task %d: %w", i, boom)
			}
			return nil
		}
	}
	err := Run(8, tasks)
	if !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want wrapped boom", err)
	}
	if got := ran.Load(); got != 50 {
		t.Fatalf("ran %d tasks, want all 50 despite errors", got)
	}
}

func TestRunEmptyAndNil(t *testing.T) {
	if err := Run(4, nil); err != nil {
		t.Fatalf("Run(nil) = %v", err)
	}
	if err := Run(0, []func() error{func() error { return nil }}); err != nil {
		t.Fatalf("Run with workers=0 = %v", err)
	}
}

func TestRunAllCollectsEveryError(t *testing.T) {
	tasks := make([]func() error, 20)
	for i := range tasks {
		i := i
		tasks[i] = func() error {
			if i%2 == 0 {
				return fmt.Errorf("task %d", i)
			}
			return nil
		}
	}
	errs := RunAll(4, tasks)
	if len(errs) != 10 {
		t.Fatalf("collected %d errors, want 10", len(errs))
	}
}

func TestForEachVisitsEachIndexOnce(t *testing.T) {
	const n = 200
	var mu sync.Mutex
	seen := make(map[int]int, n)
	results := make([]int, n)
	err := ForEach(16, n, func(i int) error {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		results[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if seen[i] != 1 {
			t.Fatalf("index %d visited %d times", i, seen[i])
		}
		if results[i] != i*i {
			t.Fatalf("results[%d] = %d", i, results[i])
		}
	}
}

func TestSequentialStopsAtFirstError(t *testing.T) {
	var ran int
	boom := errors.New("boom")
	err := Sequential([]func() error{
		func() error { ran++; return nil },
		func() error { ran++; return boom },
		func() error { ran++; return nil },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if ran != 2 {
		t.Fatalf("ran %d tasks, want 2 (stop at first error)", ran)
	}
}

// TestGroupBoundsInFlightAndPacesTheProducer: Go blocks at the limit, so a
// producer never has more than limit tasks running, and every task it was
// allowed to start runs to completion before Wait returns.
func TestGroupBoundsInFlightAndPacesTheProducer(t *testing.T) {
	const limit, n = 4, 100
	g, _ := NewGroup(context.Background(), limit)
	var inFlight, peak, ran atomic.Int64
	release := make(chan struct{})
	produced := make(chan struct{})
	go func() {
		defer close(produced)
		for i := 0; i < n; i++ {
			err := g.Go(func() error {
				cur := inFlight.Add(1)
				for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
				}
				<-release
				inFlight.Add(-1)
				ran.Add(1)
				return nil
			})
			if err != nil {
				t.Errorf("Go(%d) = %v", i, err)
				return
			}
		}
	}()
	// The producer stalls once limit tasks are parked on release.
	for inFlight.Load() < limit {
		runtime.Gosched()
	}
	select {
	case <-produced:
		t.Fatal("producer finished with the pool full: Go did not block at the limit")
	default:
	}
	close(release)
	<-produced
	if err := g.Wait(); err != nil {
		t.Fatalf("Wait = %v", err)
	}
	if ran.Load() != n {
		t.Fatalf("ran %d tasks, want %d", ran.Load(), n)
	}
	if peak.Load() > limit {
		t.Fatalf("peak in flight = %d, limit %d", peak.Load(), limit)
	}
}

// TestGroupFirstErrorStopsNewWork: after a task fails, Go refuses further
// tasks with that error, the group's context ends with it as the cause, the
// tasks already in flight still finish, and Wait reports it.
func TestGroupFirstErrorStopsNewWork(t *testing.T) {
	boom := errors.New("boom")
	g, ctx := NewGroup(context.Background(), 2)
	slow := make(chan struct{})
	var slowDone atomic.Bool
	if err := g.Go(func() error { <-slow; slowDone.Store(true); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := g.Go(func() error { return boom }); err != nil {
		t.Fatal(err)
	}
	<-ctx.Done()
	if got := context.Cause(ctx); !errors.Is(got, boom) {
		t.Fatalf("context cause = %v, want boom", got)
	}
	if err := g.Go(func() error { t.Error("task started after the group failed"); return nil }); !errors.Is(err, boom) {
		t.Fatalf("Go after failure = %v, want boom", err)
	}
	close(slow)
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want boom", err)
	}
	if !slowDone.Load() {
		t.Fatal("Wait returned before the in-flight task finished")
	}
}

func TestGroupParentCancellation(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	g, _ := NewGroup(parent, 1)
	cancel()
	if err := g.Go(func() error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("Go under a cancelled parent = %v", err)
	}
	if err := g.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v", err)
	}
	g2, _ := NewGroup(context.Background(), 1)
	if err := g2.Wait(); err != nil {
		t.Fatalf("idle group Wait = %v", err)
	}
}
