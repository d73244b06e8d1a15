package translog

import (
	"os"
	"runtime"
	"strings"
	"testing"

	"passcloud/internal/cloud/store"
	"passcloud/internal/merkle"
	"passcloud/internal/sim"
)

// openFixture is a valid 8-leaf log's durable state, key by key: three
// entry batches (leaves 0–1, 2–4 and 5–7), their heads, the latest head and
// the checkpoint, as Checkpoint wrote them from the golden notice stream.
func openFixture(tb testing.TB) (cfg sim.Config, keys []string, objs map[string][]byte) {
	tb.Helper()
	cfg = sim.DefaultConfig()
	cfg.Seed, cfg.Consistency = 42, sim.Strict
	env := sim.NewEnv(cfg)
	st := store.New(env)
	l := New(env, st, "")
	for _, n := range goldenNotices(42, 3) {
		l.Ingest(n)
		if _, err := l.Checkpoint(); err != nil {
			tb.Fatal(err)
		}
	}
	if l.Size() != 8 {
		tb.Fatalf("fixture log has %d leaves, want 8", l.Size())
	}
	keys, _, err := st.ListAll(DefaultPrefix)
	if err != nil {
		tb.Fatal(err)
	}
	objs = make(map[string][]byte, len(keys))
	for _, k := range keys {
		o, err := st.Get(k)
		if err != nil {
			tb.Fatal(err)
		}
		objs[k] = o.Data
	}
	return cfg, keys, objs
}

// FuzzOpenLog: Open reads the log's entry batches, checkpoint and latest
// head back from the store, so each is a trust boundary. With one of them
// (an entry batch, the checkpoint or the latest head, as which picks)
// replaced by the input in an otherwise valid 8-leaf log, Open never
// panics, allocates at most 64·len(input)+256 KiB, and either fails or
// returns a log whose adopted head verifies and whose root matches the
// leaves it rebuilt. The corpus is the fixture's own objects and the leaf
// golden's leaves, each as a one-leaf batch.
func FuzzOpenLog(f *testing.F) {
	cfg, keys, objs := openFixture(f)
	targets := []string{
		DefaultPrefix + entriesDir + "000000000000",
		DefaultPrefix + entriesDir + "000000000002",
		DefaultPrefix + entriesDir + "000000000005",
		DefaultPrefix + checkpointKey,
		DefaultPrefix + latestHeadKey,
	}
	for which, k := range targets {
		if objs[k] == nil {
			f.Fatalf("fixture has no %s", k)
		}
		f.Add(uint8(which), objs[k])
	}
	// A checkpoint is not signed: a negative size must be refused, not sliced.
	f.Add(uint8(3), []byte(`{"tree_size":-1,"bus_seq":0,"compact":[]}`))
	golden, err := os.ReadFile("testdata/leaves_seed42.golden")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(golden), "\n") {
		if _, leaf, ok := strings.Cut(line, " "); ok && strings.HasPrefix(leaf, "{") {
			for which := range 3 {
				f.Add(uint8(which), []byte("["+leaf+"]"))
			}
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		env := sim.NewEnv(cfg)
		st := store.New(env)
		target := targets[int(which)%len(targets)]
		for _, k := range keys {
			obj := objs[k]
			if k == target {
				obj = data
			}
			if err := st.Put(k, obj, nil); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l, err := Open(env, st, "")
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(data))+256<<10; got > limit {
			t.Fatalf("Open with a %d-byte %s allocated %d bytes, over %d", len(data), target, got, limit)
		}
		if err != nil {
			return
		}
		h := l.Head()
		if !h.Verify(l.Public()) {
			t.Fatalf("Open adopted a head that does not verify: %+v", h)
		}
		if root := merkle.LogRoot(l.hashes[:h.TreeSize]).String(); root != h.Root {
			t.Fatalf("Open adopted head root %s over leaves whose root is %s", h.Root, root)
		}
	})
}
