package sdb

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"passcloud/internal/resilient"
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
		sa := a.Directory().Route(key)
		if sb := b.Directory().Route(key); sa != sb {
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
		counts[a.Directory().Route(fmt.Sprintf("0000%04d-aaaa-4bbb-8ccc-ddddeeeeffff", i))]++
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
	if NewSet(s.env, "prov", 0).Shards() != 1 || NewSet(s.env, "prov", -3).Shards() != 1 {
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
		err := s.BatchPutAttributes([]PutRequest{{
			Item:    name,
			Attrs:   []Attr{{Name: "type", Value: "file"}, {Name: "seq", Value: fmt.Sprintf("%06d", i)}},
			Replace: true,
		}})
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
		a, _, _, err := one.View().SelectAll(expr)
		if err != nil {
			t.Fatal(err)
		}
		b, _, _, err := four.View().SelectAll(expr)
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

// TestHeldResultsStayOwned: a drained SELECT result is the caller's own. At
// K=1 and K=4, results held from full, projected, IN-routed and many-page
// drains stay byte-identical while the same domains serve more SELECTs,
// rewrite every item (at K=1 enough to compact the pair slab), delete and
// reap items and reuse their ids; and appending to one held item's
// attributes never writes the next item's.
func TestHeldResultsStayOwned(t *testing.T) {
	for _, k := range []int{1, 4} {
		s := newSet(t, k) // strict: a delete is reaped at once
		names := populateSet(t, s, 120)
		queries := []Query{
			{Domain: "prov"},
			{Domain: "prov", Fields: []string{"seq"}, Where: Eq("type", "file")},
			{Domain: "prov", Where: In(ItemNameKey, names[:30]...)},
			{Domain: "prov", ItemOnly: true, Where: Like("seq", "0000%")},
			{Domain: "prov", Limit: 7}, // many pages per shard
		}
		held, want := make([][]Item, len(queries)), make([][]Item, len(queries))
		for i, q := range queries {
			items, _, _, err := s.SelectAllQuery(q)
			if err != nil || len(items) == 0 {
				t.Fatalf("k=%d, query %d: %d items, err=%v", k, i, len(items), err)
			}
			held[i], want[i] = items, deepCopy(items)
		}
		for round := 1; round <= 6; round++ {
			for _, q := range queries {
				if _, _, _, err := s.SelectAllQuery(q); err != nil {
					t.Fatal(err)
				}
			}
			for i, name := range names {
				err := s.BatchPutAttributes([]PutRequest{{Item: name, Replace: true, Attrs: []Attr{
					{Name: "type", Value: "file"},
					{Name: "seq", Value: fmt.Sprintf("%0*d", 6+round, i)},
				}}})
				if err != nil {
					t.Fatal(err)
				}
			}
			for _, name := range names[round*10 : round*10+5] {
				if err := s.Shard(s.ShardForItem(name)).BatchDeleteAttributes([]string{name}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := range queries {
			if !reflect.DeepEqual(held[i], want[i]) {
				t.Fatalf("k=%d, query %d: a held result changed under later requests", k, i)
			}
			for j := 0; j+1 < len(held[i]); j++ {
				_ = append(held[i][j].Attrs, Attr{"x", "y"})
				if !reflect.DeepEqual(held[i][j+1], want[i][j+1]) {
					t.Fatalf("k=%d, query %d: appending to item %d's attributes wrote item %d's", k, i, j, j+1)
				}
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
	if _, _, _, err := s.View().SelectAll("select * from wrongdomain"); err == nil {
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
		return s.env.Now()
	}
	want := run()
	for i := 0; i < 8; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d of the same seed ended at %v, the first at %v", i+1, got, want)
		}
	}
}

// TestManualScatterIsDeterministic: on the manual clock a K-way scatter
// drains its shards in shard order, so one seed decides which shard draws
// which jitter and fault and whether a drain is hedged. Thirty fresh
// same-seed runs of a 32-way SELECT, with the retry layer installed as the
// fabric installs it, end at one simulated time with one op, fault and hedge
// count per endpoint; without faults each run is exactly 32 SELECTs and no
// hedge. With a goroutine per shard the drains' sleeps summed into each
// other's hedge timers, and the scheduler picked who drew what.
func TestManualScatterIsDeterministic(t *testing.T) {
	const k, items, runs = 32, 400, 30
	for _, leg := range []struct {
		name   string
		faults float64
	}{{"faults", 0.05}, {"fault-free", 0}} {
		t.Run(leg.name, func(t *testing.T) {
			seen := map[string]int{}
			for run := 0; run < runs; run++ {
				cfg := sim.DefaultConfig()
				cfg.Seed = 42
				cfg.Consistency = sim.Strict
				env := sim.NewEnv(cfg)
				res := resilient.New(env, resilient.Policy{})
				env.SetRetry(res)
				s := NewSet(env, "prov", k)
				for i := 0; i < items; i += MaxBatchItems {
					var reqs []PutRequest
					for j := i; j < i+MaxBatchItems; j++ {
						reqs = append(reqs, PutRequest{
							Item:  fmt.Sprintf("%08x-aaaa-4bbb-8ccc-ddddeeeeffff_1", uint32(j*2654435761)),
							Attrs: []Attr{{Name: "type", Value: "file"}, {Name: "pad", Value: strings.Repeat("x", j%97)}},
						})
					}
					if err := s.BatchPutAttributes(reqs); err != nil {
						t.Fatal(err)
					}
				}
				if leg.faults > 0 {
					env.InstallFaults(sim.UniformPlan(leg.faults, 0.5))
				}
				before, t0 := env.Meter().Usage(), env.Now()
				got, _, _, err := s.SelectAllQuery(Query{Domain: "prov", ItemOnly: true, Where: Eq("type", "file")})
				if err != nil || len(got) != items {
					t.Fatalf("run %d: %d items, %v; want %d", run, len(got), err, items)
				}
				elapsed, after := env.Now()-t0, env.Meter().Usage()
				ops, faults := map[string]int64{}, after.FaultsByEndpoint // the plan armed after the writes
				for ep, n := range after.OpsByEndpoint {
					if d := n - before.OpsByEndpoint[ep]; d != 0 {
						ops[ep] = d
					}
				}
				hedges := res.Stats().Totals().Hedges
				selects := after.OpsByKind["sdb.Select"] - before.OpsByKind["sdb.Select"]
				if leg.faults > 0 && len(faults) == 0 {
					t.Fatalf("run %d: the fault plan fired no fault", run)
				}
				if leg.faults == 0 && (selects != k || hedges != 0) {
					t.Fatalf("run %d: %d SELECTs and %d hedges, want %d and 0", run, selects, hedges, k)
				}
				seen[fmt.Sprintf("elapsed %v ops %v faults %v hedges %d", elapsed, ops, faults, hedges)]++
			}
			if len(seen) != 1 {
				for run, n := range seen {
					t.Logf("%d× %s", n, run)
				}
				t.Fatalf("%d same-seed runs gave %d distinct outcomes", runs, len(seen))
			}
			for run := range seen {
				t.Log(run)
			}
		})
	}
}

// TestScatterDrainAllocationsFlat pins what a warmed scatter drain costs the
// Go heap on the manual clock at K=4, with the retry layer installed as the
// fabric installs it: `input IN (20 names)`, a descendants level's child
// lookup, asks all four shards, each drained into its own buffer inside one
// reused Result: the caller's IN node is the one allocation, whether 2 of
// the 20 parents have children or all 20 have three each.
func TestScatterDrainAllocationsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cfg := sim.DefaultConfig()
	cfg.Consistency = sim.Strict
	env := sim.NewEnv(cfg)
	env.SetRetry(resilient.New(env, resilient.Policy{}))
	s := NewSet(env, "prov", 4)
	name := func(j int) string { return fmt.Sprintf("%08x-aaaa-4bbb-8ccc-ddddeeeeffff_1", uint32(j*2654435761)) }
	var parents [2][]string // batch 0: two parents with a child each; batch 1: twenty with three
	var reqs []PutRequest
	for b := range parents {
		for p := 0; p < 20; p++ {
			parent := name(1000 + 100*b + p)
			parents[b] = append(parents[b], parent)
			for c := 0; c < []int{min(1, max(0, 2-p)), 3}[b]; c++ {
				reqs = append(reqs, PutRequest{Item: name(len(reqs)), Attrs: []Attr{{Name: "type", Value: "file"}, {Name: "input", Value: parent}}})
			}
		}
	}
	for batch := range slices.Chunk(reqs, MaxBatchItems) {
		if err := s.BatchPutAttributes(batch); err != nil {
			t.Fatal(err)
		}
	}
	v, r := s.View(), new(Result)
	var allocs [2]float64
	for b, want := range []int{2, 60} {
		allocs[b] = testing.AllocsPerRun(50, func() {
			if err := v.Drain(Query{Domain: "prov", ItemOnly: true, Where: In("input", parents[b]...)}, r); err != nil || len(r.Items) != want || r.Requests != 4 {
				t.Fatalf("%d items in %d requests, err %v; want %d in 4", len(r.Items), r.Requests, err, want)
			}
		})
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("a scatter drain allocates %v times at 2 matches, %v at 60", allocs[0], allocs[1])
	}
	t.Logf("a warmed K=4 scatter drain allocates %v times", allocs[0])
	if ceiling := 1.0; allocs[0] > ceiling {
		t.Errorf("a scatter drain allocates %v times, want <= %v", allocs[0], ceiling)
	}
}

// TestLiveHedgedDrainsKeepBuffersApart: on a live clock with a hedge delay
// shorter than any SELECT, nearly every shard drain races a hedge, and the
// loser runs on after the scatter returns. Drains into one reused Result
// must still return the whole, ordered item set every time, and under -race
// a loser writing a buffer the next drain reuses would be reported.
func TestLiveHedgedDrainsKeepBuffersApart(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Consistency, cfg.TimeScale = sim.Strict, 1000
	env := sim.NewEnv(cfg)
	res := resilient.New(env, resilient.Policy{HedgeAfter: time.Millisecond})
	env.SetRetry(res)
	s := NewSet(env, "prov", 4)
	const items = 200
	var want []string
	for i := 0; i < items; i += MaxBatchItems {
		var reqs []PutRequest
		for j := i; j < i+MaxBatchItems; j++ {
			name := fmt.Sprintf("%08x-aaaa-4bbb-8ccc-ddddeeeeffff_1", uint32(j*2654435761))
			reqs, want = append(reqs, PutRequest{Item: name, Attrs: []Attr{{Name: "type", Value: "file"}}}), append(want, name)
		}
		if err := s.BatchPutAttributes(reqs); err != nil {
			t.Fatal(err)
		}
	}
	slices.Sort(want)
	v, r := s.View(), new(Result)
	for i := 0; i < 20; i++ {
		if err := v.Drain(Query{Domain: "prov", Where: Eq("type", "file")}, r); err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(r.Items))
		for j, it := range r.Items {
			if got[j] = it.Name; len(it.Attrs) != 1 || it.Attrs[0] != (Attr{Name: "type", Value: "file"}) {
				t.Fatalf("drain %d: %s carries %v", i, it.Name, it.Attrs)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("drain %d: %d items, want the %d in name order", i, len(got), len(want))
		}
	}
	if res.Stats().Totals().Hedges == 0 {
		t.Fatal("no drain was hedged")
	}
}
