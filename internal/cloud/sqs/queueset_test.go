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
	s.SetRetention(time.Hour)
	for i := 0; i < 4; i++ {
		if _, err := s.Shard(i).SendMessage([]byte("stale")); err != nil {
			t.Fatal(err)
		}
	}
	if dropped := s.GC(); dropped != 0 {
		t.Fatalf("fresh messages dropped: %d", dropped)
	}
	s.Shard(0).env.Clock().Advance(2 * time.Hour)
	if dropped := s.GC(); dropped != 4 {
		t.Fatalf("GC dropped %d, want 4", dropped)
	}
	if s.Len() != 0 {
		t.Fatalf("set still holds %d messages", s.Len())
	}
}
