// Package par provides the one bounded-parallel execution primitive the
// client and query layers share. The storage protocols' upload pools, the
// query engine's GET and SELECT fan-outs and the commit daemon's cleanup
// sweeps all need the same shape — run N tasks on at most W goroutines,
// drain every task even when one fails, report errors deterministically —
// and previously each carried its own hand-rolled sem/errs loop. Group is
// the same bound for a producer that finds its tasks as it goes (the
// resharder's scanners).
package par

import (
	"context"
	"sync"
)

// Run executes tasks on at most workers goroutines and returns the first
// error. All tasks run regardless of failures, mirroring how an upload pool
// drains even when one transfer fails.
func Run(workers int, tasks []func() error) error {
	var (
		mu    sync.Mutex
		first error
	)
	run(workers, len(tasks), func(i int) {
		if err := tasks[i](); err != nil {
			mu.Lock()
			if first == nil {
				first = err
			}
			mu.Unlock()
		}
	})
	return first
}

// RunAll executes tasks on at most workers goroutines and collects every
// error (not just the first), for callers like receipt cleanup where each
// failed task must be reported rather than abandoned.
func RunAll(workers int, tasks []func() error) []error {
	var (
		mu   sync.Mutex
		errs []error
	)
	run(workers, len(tasks), func(i int) {
		if err := tasks[i](); err != nil {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
		}
	})
	return errs
}

// ForEach runs f(0) .. f(n-1) on at most workers goroutines and returns the
// first error. Callers that need per-task results write into the i-th slot
// of a pre-sized slice, which is race-free because each index is visited
// exactly once.
func ForEach(workers, n int, f func(i int) error) error {
	var (
		mu    sync.Mutex
		first error
	)
	run(workers, n, func(i int) {
		if err := f(i); err != nil {
			mu.Lock()
			if first == nil {
				first = err
			}
			mu.Unlock()
		}
	})
	return first
}

// Sequential executes tasks in order, stopping at the first error — the
// strict-ordering ablation of the parallel pools.
func Sequential(tasks []func() error) error {
	for _, t := range tasks {
		if err := t(); err != nil {
			return err
		}
	}
	return nil
}

// run is the shared pool: a channel of indices drained by min(workers, n)
// goroutines. Every index is handed out exactly once.
func run(workers, n int, f func(i int)) {
	if n == 0 {
		return
	}
	if workers <= 0 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
}

// Group runs tasks a producer discovers as it goes — a scanner paging through
// a shard, handing each full batch off as it fills — on at most limit
// goroutines at once. Go blocks while limit tasks are in flight, so the
// producer is paced by the pool rather than buffering unboundedly ahead of
// it; the first task error cancels the group's context, after which Go
// refuses new work, and Wait reports that error once the tasks in flight
// have finished.
type Group struct {
	ctx    context.Context
	cancel context.CancelCauseFunc
	slots  chan struct{}
	wg     sync.WaitGroup
}

// NewGroup returns a group bounded at limit concurrent tasks and the context
// its producers should watch: it ends when a task fails or parent does.
func NewGroup(parent context.Context, limit int) (*Group, context.Context) {
	if limit <= 0 {
		limit = 1
	}
	ctx, cancel := context.WithCancelCause(parent)
	return &Group{ctx: ctx, cancel: cancel, slots: make(chan struct{}, limit)}, ctx
}

// Go starts task on a free slot, waiting for one if the group is at its
// limit. It returns the group's failure (without running task) once a task
// has failed or the parent context has ended.
func (g *Group) Go(task func() error) error {
	select {
	case g.slots <- struct{}{}:
	case <-g.ctx.Done():
		return context.Cause(g.ctx)
	}
	if g.ctx.Err() != nil { // both were ready: the failure wins
		<-g.slots
		return context.Cause(g.ctx)
	}
	g.wg.Add(1)
	go func() {
		defer func() {
			<-g.slots
			g.wg.Done()
		}()
		if err := task(); err != nil {
			g.cancel(err)
		}
	}()
	return nil
}

// Wait blocks until every started task has returned and reports the first
// task error (or the parent context's). Call it once, after the last Go.
func (g *Group) Wait() error {
	g.wg.Wait()
	err := context.Cause(g.ctx)
	g.cancel(nil)
	return err
}
