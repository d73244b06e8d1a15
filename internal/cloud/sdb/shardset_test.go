package sdb

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"passcloud/internal/sim"
)

func newSet(t *testing.T, k int) *DomainSet {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Consistency = sim.Strict
	return NewSet(sim.NewEnv(cfg), "prov", k)
}

// TestShardRoutingDeterminism pins the uuid→shard mapping: the same key
// always routes to the same shard, every version of an item routes with its
// uuid, and the mapping is stable across independently built sets (clients
// and daemons must agree without coordination).
func TestShardRoutingDeterminism(t *testing.T) {
	a, b := newSet(t, 4), newSet(t, 4)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("0000%04d-aaaa-4bbb-8ccc-ddddeeeeffff", i)
		sa := a.ShardForKey(key)
		if sb := b.ShardForKey(key); sa != sb {
			t.Fatalf("key %s routes to %d and %d on identical sets", key, sa, sb)
		}
		if sa < 0 || sa >= 4 {
			t.Fatalf("key %s routed out of range: %d", key, sa)
		}
		for v := 1; v <= 3; v++ {
			item := fmt.Sprintf("%s_%d", key, v)
			if got := a.ShardForItem(item); got != sa {
				t.Fatalf("version %d of %s routed to %d, uuid to %d", v, key, got, sa)
			}
		}
	}
	// The router must actually spread: with 200 keys over 4 shards every
	// shard gets some.
	counts := make([]int, 4)
	for i := 0; i < 200; i++ {
		counts[a.ShardForKey(fmt.Sprintf("0000%04d-aaaa-4bbb-8ccc-ddddeeeeffff", i))]++
	}
	for s, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d got no keys: %v", s, counts)
		}
	}
}

// TestShardSetSeedTopology pins the K=1 ablation path: a one-shard set is
// the seed deployment — bare domain name, everything routed to shard 0.
func TestShardSetSeedTopology(t *testing.T) {
	s := newSet(t, 1)
	if s.Shards() != 1 || s.Shard(0).Name() != "prov" {
		t.Fatalf("K=1 set: shards=%d name=%q, want 1/prov", s.Shards(), s.Shard(0).Name())
	}
	if got := s.ShardForItem("anything_1"); got != 0 {
		t.Fatalf("K=1 routing returned %d", got)
	}
	// Clamping: invalid counts fall back to one shard.
	if NewSet(s.Env(), "prov", 0).Shards() != 1 || NewSet(s.Env(), "prov", -3).Shards() != 1 {
		t.Fatal("non-positive shard counts not clamped to 1")
	}
}

// populateSet writes n items through the set, returning their names.
func populateSet(t *testing.T, s *DomainSet, n int) []string {
	t.Helper()
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%08d-0000-4000-8000-000000000000_%d", i%17, i)
		names = append(names, name)
		err := s.PutAttributes(PutRequest{
			Item:    name,
			Attrs:   []Attr{{Name: "type", Value: "file"}, {Name: "seq", Value: fmt.Sprintf("%06d", i)}},
			Replace: true,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}

// TestShardSetScatterGatherCanonicalOrder proves the scatter-gather drain
// reproduces a single domain's canonical result order: SELECTs over K=1 and
// K=4 sets holding the same items return identical item sequences.
func TestShardSetScatterGatherCanonicalOrder(t *testing.T) {
	one, four := newSet(t, 1), newSet(t, 4)
	populateSet(t, one, 120)
	populateSet(t, four, 120)

	for _, expr := range []string{
		"select * from prov",
		"select itemName() from prov where type = 'file'",
		"select * from prov where seq > '000050'",
	} {
		a, _, _, err := one.SelectAll(expr)
		if err != nil {
			t.Fatal(err)
		}
		b, _, _, err := four.SelectAll(expr)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: %d vs %d items", expr, len(a), len(b))
		}
		for i := range a {
			if a[i].Name != b[i].Name {
				t.Fatalf("%s: order diverges at %d: %s vs %s", expr, i, a[i].Name, b[i].Name)
			}
		}
	}
}

// TestShardSetRoutedLookup proves single-key reads touch only the home
// shard: a uuid-prefix SELECT and GetAttributes find items on a 4-way set,
// and the planned drain issues exactly one shard's worth of requests.
func TestShardSetRoutedLookup(t *testing.T) {
	s := newSet(t, 4)
	names := populateSet(t, s, 40)
	for _, name := range names[:10] {
		it, err := s.GetAttributes(name)
		if err != nil {
			t.Fatalf("GetAttributes(%s): %v", name, err)
		}
		if it.Name != name {
			t.Fatalf("got %s, want %s", it.Name, name)
		}
	}
	key := RouteKey(names[0])
	q := Query{Domain: "prov", Where: Like(ItemNameKey, key+"_%")}
	items, requests, _, err := s.SelectAllQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) == 0 {
		t.Fatal("routed select found nothing")
	}
	if requests != 1 {
		t.Fatalf("routed select used %d requests, want 1 (single-shard)", requests)
	}
	for _, it := range items {
		if RouteKey(it.Name) != key {
			t.Fatalf("routed select leaked foreign item %s", it.Name)
		}
	}
}

// TestShardSetPagedSelect drains a 4-way set through the paged Select with
// shard-carrying continuation tokens and checks nothing is lost or
// duplicated.
func TestShardSetPagedSelect(t *testing.T) {
	s := newSet(t, 4)
	names := populateSet(t, s, 60)
	seen := make(map[string]bool)
	token := ""
	for pages := 0; ; pages++ {
		if pages > 100 {
			t.Fatal("pagination did not terminate")
		}
		page, err := s.Select("select itemName() from prov limit 7", token)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range page.Items {
			if seen[it.Name] {
				t.Fatalf("duplicate item %s", it.Name)
			}
			seen[it.Name] = true
		}
		if page.NextToken == "" {
			break
		}
		token = page.NextToken
	}
	if len(seen) != len(names) {
		t.Fatalf("paged drain saw %d of %d items", len(seen), len(names))
	}
	// A token that names no planned shard is refused, not read as a name.
	for _, bad := range []string{"s2", "x", "s9|", "s-1|", "|"} {
		if _, err := s.Select("select itemName() from prov limit 7", bad); err == nil {
			t.Fatalf("continuation token %q accepted", bad)
		}
	}
}

// TestShardSetBatchPutSplit checks a mixed batch splits per home shard and
// every item lands readable, while the wrong logical domain is rejected.
func TestShardSetBatchPutSplit(t *testing.T) {
	s := newSet(t, 4)
	var reqs []PutRequest
	for i := 0; i < MaxBatchItems; i++ {
		reqs = append(reqs, PutRequest{
			Item:    fmt.Sprintf("%08d-1111-4000-8000-000000000000_1", i),
			Attrs:   []Attr{{Name: "type", Value: "proc"}},
			Replace: true,
		})
	}
	if err := s.BatchPutAttributes(reqs); err != nil {
		t.Fatal(err)
	}
	if got := s.ItemCount(); got != MaxBatchItems {
		t.Fatalf("items = %d, want %d", got, MaxBatchItems)
	}
	if _, _, _, err := s.SelectAll("select * from wrongdomain"); err == nil {
		t.Fatal("foreign domain accepted")
	}
}

// TestBatchPutShardOrderIsSeeded: a mixed batch at K=4 becomes one call per
// shard, and the order of those calls decides which call draws which jitter —
// so the same seed must end at the same simulated time, every time.
func TestBatchPutShardOrderIsSeeded(t *testing.T) {
	run := func() time.Duration {
		s := newSet(t, 4)
		reqs := make([]PutRequest, MaxBatchItems)
		for i := range reqs {
			reqs[i] = PutRequest{
				Item:  fmt.Sprintf("0000%04d-aaaa-4bbb-8ccc-ddddeeeeffff_1", i),
				Attrs: []Attr{{Name: "pad", Value: strings.Repeat("x", 10*i)}},
			}
		}
		if err := s.BatchPutAttributes(reqs); err != nil {
			t.Fatal(err)
		}
		return s.Env().Now()
	}
	want := run()
	for i := 0; i < 8; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d of the same seed ended at %v, the first at %v", i+1, got, want)
		}
	}
}
