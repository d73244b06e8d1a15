package pass

import (
	"fmt"
	"testing"

	"passcloud/internal/merkle"
	"passcloud/internal/sim"
	"passcloud/internal/trace"
)

// blastTrace is a Blast-shaped system-call stream: per batch, blastall
// reads the shared database and a query and writes a raw result in three
// chunks, then a formatter turns the raw result into a report. Every
// closed file is on the mount.
func blastTrace(batches int) trace.Trace {
	b := trace.NewBuilder()
	for i := 0; i < batches; i++ {
		raw := fmt.Sprintf("mnt/work/raw%06d.out", i)
		rep := fmt.Sprintf("mnt/out/hits%06d.txt", i)
		query := fmt.Sprintf("queries/q%06d.fas", i)
		blast := b.Spawn(0, "/usr/bin/blastall", "blastall", "-p", "blastp", "-d", "nr", "-i", query)
		b.Read(blast, "db/nr.fmt", 12<<20).Read(blast, query, 256<<10)
		for c := 0; c < 3; c++ {
			b.Write(blast, raw, 64<<10)
		}
		b.Close(blast, raw).Exit(blast)
		fmtr := b.Spawn(0, "/usr/bin/blastfmt", "blastfmt", raw)
		b.Read(fmtr, raw, 192<<10).Write(fmtr, rep, 48<<10).Close(fmtr, rep).Exit(fmtr)
	}
	return b.Trace()
}

// TestClosureRootForMatchesBundles checks the memoized closure root
// against the root recomputed from the full closure's bundles, at every
// close of a Blast stream with seeded extra reads and writes mixed in —
// before the close's versions are recorded, after (when their digests are
// memoized), and again from the memo.
func TestClosureRootForMatchesBundles(t *testing.T) {
	rnd := sim.NewRand(42)
	c := New(sim.NewRand(42), nil)
	check := func(path string) {
		t.Helper()
		want := merkle.RootOfBundles(c.FullClosureFor(path))
		if got := c.ClosureRootFor(path); got != want {
			t.Fatalf("%s: memoized closure root %s, recomputed %s", path, got, want)
		}
	}
	for _, ev := range blastTrace(40).Events {
		if err := c.Apply(ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind == trace.Read && rnd.Intn(4) == 0 {
			// Reread an earlier output: recorded versions enter new closures.
			c.Apply(trace.Event{Kind: trace.Read, PID: ev.PID, Path: fmt.Sprintf("mnt/out/hits%06d.txt", rnd.Intn(40))})
		}
		if ev.Kind != trace.Close {
			continue
		}
		check(ev.Path)
		for _, b := range c.PendingFor(ev.Path) {
			c.MarkRecorded(b.Ref)
		}
		check(ev.Path)
		check(ev.Path)
	}
}

// BenchmarkCollector replays a 100-batch Blast stream through a fresh
// collector per op, doing at each close what PA-S3fs does: the closure
// root, the pending closure, and marking it recorded.
func BenchmarkCollector(b *testing.B) {
	tr := blastTrace(100)
	b.ReportAllocs()
	for b.Loop() {
		c := New(sim.NewRand(1), nil)
		for _, ev := range tr.Events {
			if err := c.Apply(ev); err != nil {
				b.Fatal(err)
			}
			if ev.Kind == trace.Close {
				_ = c.ClosureRootFor(ev.Path)
				for _, bun := range c.PendingFor(ev.Path) {
					c.MarkRecorded(bun.Ref)
				}
			}
		}
	}
	b.ReportMetric(float64(len(tr.Events)), "events/op")
}
