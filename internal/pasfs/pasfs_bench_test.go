package pasfs

import (
	"fmt"
	"testing"

	"passcloud/internal/cloud/store"
	"passcloud/internal/core"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/trace"
)

// stubProtocol accepts every commit and stores nothing, so a benchmark over
// it measures the client layer alone.
type stubProtocol struct{ commits int }

func (p *stubProtocol) Name() string { return "stub" }
func (p *stubProtocol) Commit(core.FileObject, []prov.Bundle) error {
	p.commits++
	return nil
}
func (p *stubProtocol) Delete(string) error                { return nil }
func (p *stubProtocol) Fetch(string) (store.Object, error) { return store.Object{}, nil }
func (p *stubProtocol) Settle() error                      { return nil }

// blastTrace is a Blast-shaped system-call stream: per batch, blastall
// reads the shared database and a query and writes a raw result, then a
// formatter turns it into a report. Both outputs are on the mount.
func blastTrace(batches int) trace.Trace {
	b := trace.NewBuilder()
	for i := 0; i < batches; i++ {
		raw := fmt.Sprintf("mnt/work/raw%06d.out", i)
		rep := fmt.Sprintf("mnt/out/hits%06d.txt", i)
		query := fmt.Sprintf("queries/q%06d.fas", i)
		blast := b.Spawn(0, "/usr/bin/blastall", "blastall", "-p", "blastp", "-d", "nr", "-i", query)
		b.Read(blast, "db/nr.fmt", 12<<20).Read(blast, query, 256<<10)
		b.Write(blast, raw, 192<<10).Close(blast, raw).Exit(blast)
		fmtr := b.Spawn(0, "/usr/bin/blastfmt", "blastfmt", raw)
		b.Read(fmtr, raw, 192<<10).Write(fmtr, rep, 48<<10).Close(fmtr, rep).Exit(fmtr)
	}
	return b.Trace()
}

// BenchmarkCloseCommit replays a 100-batch Blast stream through a fresh
// mount per op with synchronous commits over a stub protocol: every event
// through the collector, and at each close the closure digest, the
// pending closure and the hand-off to the protocol.
func BenchmarkCloseCommit(b *testing.B) {
	tr := blastTrace(100)
	env := sim.NewEnv(sim.DefaultConfig())
	b.ReportAllocs()
	for b.Loop() {
		proto := &stubProtocol{}
		fs := New(env, proto, pass.New(sim.NewRand(1), nil), Config{Collect: true})
		if err := fs.Run(tr); err != nil {
			b.Fatal(err)
		}
		if proto.commits != 200 {
			b.Fatalf("%d commits, want 200", proto.commits)
		}
	}
	b.ReportMetric(200, "commits/op")
}
