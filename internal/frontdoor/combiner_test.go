package frontdoor

import (
	"context"
	"testing"
	"time"

	"passcloud/internal/cloud/sqs"
	"passcloud/internal/core"
	"passcloud/internal/sim"
)

// TestLoneBatchAllocatesNothing pins the write combiner's reuse: a commit
// that opens a batch and ships it alone — no co-tenant joins within the
// window, the client path's common case — takes a pooled batch and makes no
// channel, so the combiner adds no allocation to the send it makes.
func TestLoneBatchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	env := sim.NewEnv(sim.DefaultConfig())
	q := sqs.New(env, "wal")
	c := &combiner{env: env, window: time.Millisecond, open: make(map[combineKey]*combineBatch)}
	// An oversized body fails the send before any request, the same way
	// every time.
	pt := &core.PreparedTxn{Queue: q, Entries: []sqs.BatchEntry{{Body: make([]byte, sqs.MaxMessageSize+1)}}}
	ctx := sim.WithTenant(context.Background(), "t")
	ship := testing.AllocsPerRun(100, func() { _ = shipEntries(ctx, q, pt.Entries) })
	send := testing.AllocsPerRun(100, func() { _ = c.send(ctx, pt) })
	if send != ship {
		t.Errorf("a lone batch allocates %v times, its send alone %v", send, ship)
	}
}
