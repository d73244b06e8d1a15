// Sharded fabric: run the same commit workload on the paper's K=1 topology
// (one SQS WAL queue, one SimpleDB provenance domain) and on a K-way
// sharded fabric, and watch the write path scale: transactions hash to
// their home WAL shard, items to their home domain, each shard with its own
// service-side request-rate gate — while every read (here, the routed
// ReadProvenance) returns byte-identical results on both topologies.
//
// With -faults the same comparison runs under chaos: every service request
// faults with the given probability (half the mutating faults ambiguous —
// applied but reported failed) and the resilient client layer absorbs it
// all with backoff, retry budgets and idempotent retries; the digests must
// still match, fault-free, byte for byte.
//
//	go run ./examples/sharded-fabric -shards 4 -workers 8 -txns 120 -faults 0.05
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"

	"passcloud/internal/core"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/query"
	"passcloud/internal/sim"
	"passcloud/internal/trace"
	"passcloud/internal/uuid"
)

func main() {
	shards := flag.Int("shards", 4, "WAL queue and SimpleDB domain shards (clamped to [1,64])")
	workers := flag.Int("workers", 8, "commit-daemon pool size")
	txns := flag.Int("txns", 120, "transactions to commit")
	faults := flag.Float64("faults", 0, "per-request transient-fault probability (0..1; 0 = calm run)")
	flag.Parse()

	base, baseDigest := run(1, *workers, *txns, *faults)
	shardedDep, shardedDigest := run(*shards, *workers, *txns, *faults)
	// The deployment clamps out-of-range shard counts; report what ran.
	k := shardedDep.Topo.WALShards

	if baseDigest != shardedDigest {
		log.Fatalf("provenance diverged between topologies:\n  K=1  %s\n  K=%d %s",
			baseDigest, k, shardedDigest)
	}
	fmt.Printf("\nprovenance digests identical across topologies: %s…\n", baseDigest[:16])

	baseSim := base.Env.Now().Seconds()
	shardedSim := shardedDep.Env.Now().Seconds()
	fmt.Printf("\nsimulated commit time:  K=1 %6.1fs   K=%d %6.1fs   (%.2fx)\n",
		baseSim, k, shardedSim, baseSim/shardedSim)

	fmt.Printf("\nper-endpoint request spread on the K=%d fabric:\n", k)
	spread := shardedDep.Env.Meter().Usage().OpsByEndpoint
	names := make([]string, 0, len(spread))
	for n := range spread {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-8s %5d requests\n", n, spread[n])
	}

	if *faults > 0 {
		u := shardedDep.Env.Meter().Usage()
		st := shardedDep.Res.Stats().Totals()
		fmt.Printf("\nchaos on the K=%d fabric: %d faults injected, %d retries, %d hedges, %d breaker opens — zero surfaced\n",
			k, u.Faults, st.Retries, st.Hedges, st.BreakerOpens)
	}
}

// run commits txns small transactions through P3 on a K×K fabric, settles,
// and returns the deployment plus a digest of every object's read-back
// provenance. faultProb > 0 arms a uniform transient-fault plan for the
// whole run — commit, settle and read-back all retry through it.
func run(k, workers, txns int, faultProb float64) (*core.Deployment, string) {
	cfg := sim.DefaultConfig()
	// Live mode so the worker pool genuinely overlaps; a moderate scale
	// keeps the modelled service latency (not host compute) dominant in
	// the measurement.
	cfg.TimeScale = 200
	cfg.Consistency = sim.Strict
	env := sim.NewEnv(cfg)
	if faultProb > 0 {
		env.InstallFaults(sim.UniformPlan(faultProb, 0.5))
	}
	dep := core.NewShardedDeployment(env, core.Topology{WALShards: k, DBShards: k})
	p3 := core.NewP3(dep, core.Options{CommitWorkers: workers})

	col := pass.New(env.Rand(), nil)
	b := trace.NewBuilder()
	var paths []string
	for i := 0; i < txns; i++ {
		path := fmt.Sprintf("mnt/data/part-%04d", i)
		pid := b.Spawn(0, "/usr/bin/ingest", "ingest", path)
		// Re-read and append over several passes: the collector versions
		// the file each cycle, so one commit carries a whole version chain
		// — the provenance-heavy shape where the domain write gate, not
		// the object store, bounds throughput.
		b.Write(pid, path, 4096)
		for v := 0; v < 12; v++ {
			b.Read(pid, path, 4096).Write(pid, path, 4096)
		}
		b.Close(pid, path)
		paths = append(paths, path)
	}
	for _, ev := range b.Trace().Events {
		col.Apply(ev)
	}
	// Pad each bundle so transactions span several WAL chunks, and log
	// concurrently — many clients share the fabric, which is exactly the
	// regime where per-shard gates beat a single queue and domain.
	pad := strings.Repeat("e", 900)
	type commit struct {
		obj     core.FileObject
		bundles []prov.Bundle
	}
	var commits []commit
	var refs []uuid.UUID
	for _, path := range paths {
		ref, _ := col.FileRef(path)
		bundles := col.PendingFor(path)
		for i := range bundles {
			bundles[i].Records = append(bundles[i].Records, prov.Record{Attr: prov.AttrEnv, Value: pad})
			col.MarkRecorded(bundles[i].Ref)
		}
		commits = append(commits, commit{obj: core.FileObject{Path: path, Size: 4096, Ref: ref}, bundles: bundles})
		refs = append(refs, ref.UUID)
	}
	sem := make(chan struct{}, 32)
	errs := make(chan error, len(commits))
	for i := range commits {
		c := &commits[i]
		sem <- struct{}{}
		go func() {
			defer func() { <-sem }()
			errs <- p3.Commit(c.obj, c.bundles)
		}()
	}
	for range commits {
		if err := <-errs; err != nil {
			log.Fatal(err)
		}
	}
	if err := p3.Settle(); err != nil {
		log.Fatal(err)
	}
	dep.Settle()

	env.Clock().SetScale(0) // read back instantly, outside the measurement
	// Read every object's versions back through the query API: one Versions
	// spec covering all uuids, each routed to its home shard. The digest
	// must not depend on K.
	eng := query.New(dep, core.BackendSDB)
	bundles, err := eng.CollectBundles(query.Spec{
		Roots:     query.Roots{UUIDs: refs},
		Direction: query.Versions,
	})
	if err != nil {
		log.Fatal(err)
	}
	h := sha256.New()
	h.Write(prov.EncodeBundles(bundles))
	return dep, hex.EncodeToString(h.Sum(nil))
}
