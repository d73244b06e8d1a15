package fabric

import (
	"fmt"
	"runtime"
	"testing"

	"passcloud/internal/cloud/store"
	"passcloud/internal/core"
	"passcloud/internal/frontdoor"
	"passcloud/internal/pasfs"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/trace"
)

// tenantProtocol commits a PA-S3fs mount through a front-door tenant.
type tenantProtocol struct {
	t  *frontdoor.Tenant
	p3 *core.P3
}

func (p tenantProtocol) Name() string { return "P3/frontdoor" }
func (p tenantProtocol) Commit(obj core.FileObject, bundles []prov.Bundle) error {
	return p.t.Commit(obj, bundles)
}
func (p tenantProtocol) Delete(path string) error                { return p.p3.Delete(path) }
func (p tenantProtocol) Fetch(path string) (store.Object, error) { return p.p3.Fetch(path) }
func (p tenantProtocol) Settle() error                           { return p.p3.Settle() }

// clientTrace is a Blast-shaped system-call stream: per batch, blastall
// reads the shared database and a query and writes a raw result in three
// writes, then a formatter turns it into a report. Both outputs are on the
// mount, so each batch is two commits.
func clientTrace(batches int) trace.Trace {
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

// BenchmarkClientPath is the paper's client path end to end on the manual
// clock, as the ingest_client workload drives it: a 500-batch Blast stream
// through the PASS collector and an async PA-S3fs mount, committing through
// a front-door tenant into P3 at K=4 with the transparency log and a query
// cache on the commit bus, drained (Drain, then Settle) every 512 commits.
// Each op builds a fresh fabric off the timer. B/node is the op's
// allocation per graph node, the unit of the workload's alloc_bytes_per_op;
// profile it with -memprofile.
func BenchmarkClientPath(b *testing.B) {
	const batches, slice = 500, 512
	tr := clientTrace(batches)
	cfg := sim.DefaultConfig()
	cfg.Consistency = sim.Strict
	var bytes, nodes uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg.Seed = int64(42 + i)
		f, err := New(Config{
			Sim: cfg, Topology: core.Topology{WALShards: 4, DBShards: 4}, Workers: 4,
			Tenants:  []Tenant{{ID: "client", Quota: frontdoor.Quota{Rate: 1e6, Burst: 1e6, MaxQueue: 1 << 20}}},
			Translog: true, CacheEntries: 4096,
		})
		if err != nil {
			b.Fatal(err)
		}
		col := pass.New(sim.NewRand(int64(i)), nil)
		fs := pasfs.New(f.Env, tenantProtocol{f.Tenants[0], f.P3}, col,
			pasfs.Config{Collect: true, AsyncCommits: true, MaxInflight: runtime.GOMAXPROCS(0)})
		flush := func() error {
			if err := fs.Drain(); err != nil {
				return err
			}
			return f.P3.Settle()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		commits := 0
		for _, ev := range tr.Events {
			if err := fs.Apply(ev); err != nil {
				b.Fatal(err)
			}
			if ev.Kind == trace.Close && pasfs.OnMount(ev.Path) {
				if commits++; commits%slice == 0 {
					if err := flush(); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		if err := flush(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		bytes += m1.TotalAlloc - m0.TotalAlloc
		nodes += uint64(col.Graph().Len())
		if got := f.Log.Size(); got != 2*batches {
			b.Fatalf("the log holds %d leaves, want one per commit (%d)", got, 2*batches)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(bytes)/float64(nodes), "B/node")
}
