package sqs

import (
	"sync/atomic"
	"time"

	"passcloud/internal/sim"
)

// QueueSet is a K-way sharded set of queues acting as one logical write-ahead
// log. Each shard is a distinct service queue with its own request-rate
// ceiling (its own gate lane), so a K-way set admits K times the requests per
// second of a single queue — the scaling lever the paper's single-queue P3
// lacks.
//
// The embedded sim.EpochSet owns the queues, their naming ("wal-i"; a set
// created at K == 1 keeps the bare name for shard 0), the placement directory
// and the reshard lifecycle, so the set can reshard live; what is left here is
// how a log routes: new transactions go by the newest epoch (the migration
// target as soon as the window opens, so grown queues take load immediately),
// while commit daemons poll the union of both epochs' shards until the old
// ones drain. WAL messages are transient, so unlike the domain set nothing is
// double-written — a transaction's packets all land on one queue, and any
// covered queue reaches a daemon. A commit daemon discovers its shard set
// with Shards/Shard and routes by key with ShardFor; every participant
// consults the same directory, so clients and daemons on different hosts
// agree on every message's home shard without coordination.
type QueueSet struct {
	*sim.EpochSet[*Queue]
	env *sim.Env

	// Sticky per-queue settings (nanoseconds): a queue minted mid-flight
	// starts with the set's current values.
	visibility, retention atomic.Int64
}

// NewSet creates a K-way queue set. k < 1 is clamped to 1; k == 1 yields a
// single queue named base (the seed topology).
func NewSet(env *sim.Env, base string, k int) *QueueSet {
	s := &QueueSet{env: env}
	s.visibility.Store(int64(DefaultVisibility))
	s.retention.Store(int64(DefaultRetention))
	s.EpochSet = sim.NewEpochSet(base, k, func(name string, lane int) *Queue {
		q := NewLane(env, name, lane)
		q.SetVisibility(time.Duration(s.visibility.Load()))
		q.SetRetention(time.Duration(s.retention.Load()))
		return q
	})
	return s
}

// Env returns the environment the set charges against.
func (s *QueueSet) Env() *sim.Env { return s.env }

// ShardFor routes a key (P3 uses the transaction uuid) to its home shard in
// the newest epoch.
func (s *QueueSet) ShardFor(key string) int { return s.Directory().RouteNewest(key) }

// HomeQueue resolves key's home queue under the current routing view and
// registers the send against the reshard barrier; callers must invoke the
// returned release once the messages are on the queue, so a shrink cannot
// retire a queue with a send still in flight toward it.
func (s *QueueSet) HomeQueue(key string) (*Queue, func()) {
	ev, release := s.BeginWrite()
	return ev.Shards[sim.RouteNewestFor(ev.Active, ev.Target, key)], release
}

// SetVisibility overrides the visibility timeout on every shard, present
// and future. The value is stored before the shards are listed: a queue
// minted meanwhile either reads it or is in the list.
func (s *QueueSet) SetVisibility(d time.Duration) {
	s.visibility.Store(int64(d))
	for _, q := range s.View().Shards {
		q.SetVisibility(d)
	}
}

// SetRetention overrides the message retention period on every shard,
// present and future (see SetVisibility).
func (s *QueueSet) SetRetention(d time.Duration) {
	s.retention.Store(int64(d))
	for _, q := range s.View().Shards {
		q.SetRetention(d)
	}
}

// Retention reports the message retention period every shard applies.
func (s *QueueSet) Retention() time.Duration { return time.Duration(s.retention.Load()) }

// Len reports the undeleted, unexpired messages across all live shards.
func (s *QueueSet) Len() int {
	n := 0
	for _, q := range s.View().Shards {
		n += q.Len()
	}
	return n
}

// ShardBacklog reports each live shard's undeleted, unexpired message count,
// keyed by service queue name — the per-shard WAL backlog signal the
// autoscale sampler surfaces as meter gauges.
func (s *QueueSet) ShardBacklog() map[string]int {
	out := make(map[string]int)
	for _, q := range s.View().Shards {
		out[q.Name()] = q.Len()
	}
	return out
}

// GC runs a retention pass on every live shard and reports how many expired
// messages were dropped in total.
func (s *QueueSet) GC() int {
	n := 0
	for _, q := range s.View().Shards {
		n += q.GCExpired()
	}
	return n
}
