package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// The reshard data path on its own: a K=1 fabric preloaded with 10k items
// grows to K=4 on the manual clock, with no ingest beside it. Besides the Go
// cost (ns/op, allocs/op) each benchmark reports what the services were
// asked for: requests/op is every billed request of the measured phase, and
// sim-s/op the simulated time it advanced the clock by. On the manual clock
// concurrent sleepers add up instead of overlapping, so sim-s/op is the
// service time the flush pool had to get through — the phase's window on a
// live clock is about that divided by the requests in flight (reshardConns).

const reshardBenchItems = 10_000

// reshardBenchFabric builds the preloaded K=1 fabric, settled.
func reshardBenchFabric(b *testing.B) *Deployment {
	b.Helper()
	cfg := sim.DefaultConfig()
	cfg.Consistency = sim.Eventual
	dep := NewShardedDeployment(sim.NewEnv(cfg), Topology{WALShards: 1, DBShards: 1})
	rnd := sim.NewRand(17)
	specs := make([]ItemSpec, reshardBenchItems)
	for i := range specs {
		specs[i] = ItemSpec{
			Ref:  prov.Ref{UUID: newRefUUID(rnd), Version: 1},
			Type: "file",
			Name: fmt.Sprintf("mnt/bench/%05d", i),
		}
	}
	if err := PopulateItems(dep.DB, specs); err != nil {
		b.Fatal(err)
	}
	dep.Settle()
	return dep
}

// measurePhase times one phase of a reshard and reports its simulated
// seconds and billed requests alongside the Go cost.
func measurePhase(b *testing.B, setup func(*Deployment), phase func(*Deployment, *ReshardStats) error, items func(ReshardStats) int) {
	b.ReportAllocs()
	var simSecs, requests float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dep := reshardBenchFabric(b)
		setup(dep)
		var stats ReshardStats
		u0, t0 := dep.Env.Meter().Usage().TotalOps, dep.Env.Now()
		b.StartTimer()
		err := phase(dep, &stats)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		simSecs += (dep.Env.Now() - t0).Seconds()
		requests += float64(dep.Env.Meter().Usage().TotalOps - u0)
		if n := items(stats); n < reshardBenchItems/2 {
			b.Fatalf("phase moved %d of %d items on a 1->4 grow", n, reshardBenchItems)
		}
		b.StartTimer()
	}
	b.ReportMetric(simSecs/float64(b.N), "sim-s/op")
	b.ReportMetric(requests/float64(b.N), "requests/op")
}

// BenchmarkReshardCopy measures phase 3 alone: the paged scan of the one
// source shard and the BatchPuts that carry ~7.5k movers to three new homes.
func BenchmarkReshardCopy(b *testing.B) {
	measurePhase(b,
		func(dep *Deployment) {
			dep.DB.BeginMigration(4)
			dep.WAL.BeginMigration(4)
		},
		func(dep *Deployment, stats *ReshardStats) error {
			return dep.reshardCopy(context.Background(), stats)
		},
		func(s ReshardStats) int { return s.CopiedItems })
}

// BenchmarkReshardGC measures phase 5 alone: a resharder killed right after
// cutover leaves ~7.5k stale copies on the old shard, and the timed region
// is the GC that collects them.
func BenchmarkReshardGC(b *testing.B) {
	target := Topology{WALShards: 4, DBShards: 4}
	measurePhase(b,
		func(dep *Deployment) {
			dep.Env.InstallFaults(nil).CrashAt(ReshardCrashPreGC, 0)
			if _, err := dep.Reshard(context.Background(), target); !errors.Is(err, sim.ErrCrashed) {
				b.Fatalf("pre-GC crash did not fire: %v", err)
			}
		},
		func(dep *Deployment, stats *ReshardStats) error {
			return dep.finishReshardGC(context.Background(), target, stats)
		},
		func(s ReshardStats) int { return s.GCItems })
}
