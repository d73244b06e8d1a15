package sqs

import (
	"fmt"
	"testing"
	"time"

	"passcloud/internal/sim"
)

func newQSet(t *testing.T, k int) *QueueSet {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Consistency = sim.Strict
	return NewSet(sim.NewEnv(cfg), "wal", k)
}

// TestQueueSetRoutingDeterminism pins the txn→queue-shard mapping: stable
// across independently built sets (the client that logs and the daemon that
// commits must agree with no coordination), in range, and actually spread.
func TestQueueSetRoutingDeterminism(t *testing.T) {
	a, b := newQSet(t, 4), newQSet(t, 4)
	counts := make([]int, 4)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("txn-%08d-aaaa-4bbb-8ccc", i)
		sa := a.Directory().Route(key)
		if sb := b.Directory().Route(key); sa != sb {
			t.Fatalf("key %s routes to %d and %d on identical sets", key, sa, sb)
		}
		if sa < 0 || sa >= 4 {
			t.Fatalf("key %s routed out of range: %d", key, sa)
		}
		counts[sa]++
	}
	for s, c := range counts {
		if c == 0 {
			t.Fatalf("queue shard %d got no keys: %v", s, counts)
		}
	}
}

// TestQueueSetSeedTopologyAndFanout checks K=1 keeps the seed queue name,
// invalid counts clamp, and a 4-way set sums lengths and applies settings
// across shards.
func TestQueueSetSeedTopologyAndFanout(t *testing.T) {
	one := newQSet(t, 1)
	if one.Shards() != 1 || one.Shard(0).Name() != "wal" {
		t.Fatalf("K=1 set: shards=%d name=%q", one.Shards(), one.Shard(0).Name())
	}
	if NewSet(one.Shard(0).env, "wal", -2).Shards() != 1 {
		t.Fatal("non-positive shard count not clamped")
	}

	four := newQSet(t, 4)
	four.SetVisibility(5 * time.Second)
	for i := 0; i < 4; i++ {
		if name := four.Shard(i).Name(); name != fmt.Sprintf("wal-%d", i) {
			t.Fatalf("shard %d named %q", i, name)
		}
		if _, err := four.Shard(i).SendMessage([]byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	if got := four.Len(); got != 4 {
		t.Fatalf("set length %d, want 4", got)
	}
}

// TestQueueSetRetentionGC proves the per-shard retention pass drops expired
// messages on every shard, including ones nobody polls.
func TestQueueSetRetentionGC(t *testing.T) {
	s := newQSet(t, 4)
	for i := 0; i < 4; i++ {
		if _, err := s.Shard(i).SendMessage([]byte("stale")); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Len(); n != 4 {
		t.Fatalf("the retention pass left %d of 4 fresh messages", n)
	}
	s.Shard(0).env.Clock().Advance(Retention + time.Hour)
	if s.Len() != 0 {
		t.Fatalf("set still holds %d messages", s.Len())
	}
}

// TestQueueSetVisibilityReportsTheLongestGrant: a receive hides what it
// delivers for the timeout it states, capped at MaxVisibility; a receive that
// delivers nothing grants nothing; and the set reports the longest grant on
// any of its shards, or its own timeout when that is longer.
func TestQueueSetVisibilityReportsTheLongestGrant(t *testing.T) {
	s := newQSet(t, 2)
	s.SetVisibility(5 * time.Second)
	q, clock := s.Shard(1), s.Shard(1).env.Clock()
	if got := q.Receive(nil, 10, time.Hour); len(got) != 0 || s.Visibility() != 5*time.Second {
		t.Fatalf("an empty receive: %d messages, set visibility %v; want none and the set's 5s", len(got), s.Visibility())
	}
	if _, err := q.SendMessage([]byte("m")); err != nil {
		t.Fatal(err)
	}
	if got := q.Receive(nil, 10, 24*time.Hour); len(got) != 1 {
		t.Fatalf("received %d messages, want 1", len(got))
	}
	if got := s.Visibility(); got != MaxVisibility {
		t.Fatalf("set visibility %v after a 24h receive, want the %v cap", got, MaxVisibility)
	}
	clock.Advance(MaxVisibility - time.Second)
	if got := q.ReceiveMessage(10); len(got) != 0 {
		t.Fatal("the message reappeared before its capped grant passed")
	}
	clock.Advance(2 * time.Second)
	if got := q.ReceiveMessage(10); len(got) != 1 {
		t.Fatal("the message did not reappear once its capped grant passed")
	}
}
