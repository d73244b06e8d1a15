package bench

import (
	"errors"
	"fmt"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/par"
	"passcloud/internal/pass"
	"passcloud/internal/sim"
	"passcloud/internal/trace"
	"passcloud/internal/workload"
)

// Ablations for the design choices §5.1 of the paper tunes per service:
// connection counts, WAL chunk size, batch size and the consistency model
// (the latency anchors are on baseModel in sim/model.go).

// Table1 runs the property probes for every configuration — the empirical
// regeneration of the paper's Table 1 (plus the persistence property).
func Table1(seed int64) ([]core.PropertyReport, error) {
	var rows []core.PropertyReport
	for _, f := range core.Factories() {
		rep, err := core.ProbeProperties(f, seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, rep)
	}
	return rows, nil
}

// ConnSweepPoint is one point of the §5.1 connection-scaling ablation.
type ConnSweepPoint struct {
	Service string
	Conns   int
	Elapsed time.Duration
	// Throughput is MB/s of provenance uploaded at this connection count.
	Throughput float64
}

// ConnSweep uploads the Table-2 provenance stream to each service at
// increasing connection counts, reproducing the observation that S3 and SQS
// keep scaling through 150 connections while SimpleDB peaks around 40.
func ConnSweep(seed int64, scale float64, conns []int) ([]ConnSweepPoint, error) {
	if len(conns) == 0 {
		conns = []int{10, 40, 150}
	}
	var points []ConnSweepPoint
	for _, c := range conns {
		rows, err := Table2(seed, scale, c, c, c)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			points = append(points, ConnSweepPoint{
				Service:    r.Service,
				Conns:      c,
				Elapsed:    r.Elapsed,
				Throughput: float64(Table2Size) / (1 << 20) / r.Elapsed.Seconds(),
			})
		}
	}
	return points, nil
}

// ChunkSweepPoint is one point of the P3 WAL chunk-size ablation.
type ChunkSweepPoint struct {
	ChunkBytes int
	Elapsed    time.Duration
	Messages   int64 // WAL messages logged
	Requests   int64 // sqs.SendMessageBatch requests that carried them
}

// ChunkSweep logs the same provenance through P3 with different WAL chunk
// sizes. Smaller chunks mean more messages (each paying the per-request
// latency); 8 KB is the service's ceiling and the best point.
func ChunkSweep(seed int64, scale float64, sizes []int) ([]ChunkSweepPoint, error) {
	if len(sizes) == 0 {
		sizes = []int{1 << 10, 2 << 10, 4 << 10, core.DefaultChunkSize}
	}
	bundles := workload.CompileProvenance(sim.NewRand(seed), 2<<20)
	var points []ChunkSweepPoint
	for _, size := range sizes {
		env := sim.NewEnv(Setup{Seed: seed, Scale: scale}.envConfig())
		dep := core.NewDeployment(env)
		p3 := core.NewP3(dep, core.Options{})
		p3.SetChunkSize(size)
		obj := core.FileObject{Path: "mnt/blob", Size: 1 << 20, Ref: bundles[len(bundles)-1].Ref}
		start := env.Now()
		if err := p3.Commit(obj, bundles); err != nil {
			return nil, err
		}
		points = append(points, ChunkSweepPoint{
			ChunkBytes: size,
			Elapsed:    env.Now() - start,
			// No daemon ran yet, so the WAL still holds every logged
			// message (the sends themselves are batched calls).
			Messages: int64(dep.WAL.Len()),
			Requests: env.Meter().Usage().OpsByKind["sqs.SendMessageBatch"],
		})
	}
	return points, nil
}

// BatchSweepPoint is one point of the BatchPutAttributes size ablation.
type BatchSweepPoint struct {
	BatchSize int
	Elapsed   time.Duration
	Calls     int64
}

// BatchSweep stores the same items through P2-style batch puts with
// different batch sizes; 25 (the service maximum) amortizes the expensive
// per-call indexing best.
func BatchSweep(seed int64, scale float64, sizes []int) ([]BatchSweepPoint, error) {
	if len(sizes) == 0 {
		sizes = []int{1, 5, 10, 25}
	}
	bundles := workload.CompileProvenance(sim.NewRand(seed), 1<<20)
	var points []BatchSweepPoint
	for _, size := range sizes {
		env := sim.NewEnv(Setup{Seed: seed, Scale: scale}.envConfig())
		dep := core.NewDeployment(env)
		reqs, err := core.ItemsForBundles(dep.Store, bundles)
		if err != nil {
			return nil, err
		}
		start := env.Now()
		calls := (len(reqs) + size - 1) / size
		err = par.ForEach(40, calls, func(i int) error {
			return dep.DB.BatchPutAttributes(reqs[i*size : min((i+1)*size, len(reqs))])
		})
		if err != nil {
			return nil, err
		}
		points = append(points, BatchSweepPoint{
			BatchSize: size,
			Elapsed:   env.Now() - start,
			Calls:     env.Meter().Usage().OpsByKind["sdb.BatchPutAttributes"],
		})
	}
	return points, nil
}

// ConsistencyPoint compares detection behaviour under eventual vs strict
// consistency: how many immediate post-commit coupling checks transiently
// fail before the services settle.
type ConsistencyPoint struct {
	Mode           sim.Consistency
	Checks         int
	TransientFails int
}

// ConsistencySweep commits objects through P2 and immediately verifies
// coupling: eventual consistency produces transient detection failures
// (which VerifiedFetch retries through); strict consistency produces none.
func ConsistencySweep(seed int64, checks int) ([]ConsistencyPoint, error) {
	if checks <= 0 {
		checks = 40
	}
	var points []ConsistencyPoint
	for _, mode := range []sim.Consistency{sim.Eventual, sim.Strict} {
		cfg := sim.DefaultConfig()
		cfg.Seed = seed
		cfg.Consistency = mode
		env := sim.NewEnv(cfg)
		dep := core.NewDeployment(env)
		p := core.NewP2(dep, core.Options{})
		col := pass.New(env.Rand(), nil)
		tb := trace.NewBuilder()
		pid := tb.Spawn(0, "/bin/gen", "gen")
		for _, ev := range tb.Trace().Events {
			col.Apply(ev)
		}
		fails := 0
		for i := 0; i < checks; i++ {
			path := fmt.Sprintf("mnt/f%03d", i)
			col.Apply(trace.Event{Kind: trace.Write, PID: pid, Path: path, Bytes: 1024})
			col.Apply(trace.Event{Kind: trace.Close, PID: pid, Path: path})
			ref, _ := col.FileRef(path)
			bundles := col.PendingFor(path)
			for _, b := range bundles {
				col.MarkRecorded(b.Ref)
			}
			if err := p.Commit(core.FileObject{Path: path, Size: 1024, Ref: ref}, bundles); err != nil {
				return nil, err
			}
			rep, err := core.CheckCoupling(dep, core.BackendSDB, path)
			if err != nil || !rep.Coupled {
				fails++
			}
			dep.Settle()
			// After settling, the check must always pass.
			rep, err = core.CheckCoupling(dep, core.BackendSDB, path)
			if err != nil {
				return nil, err
			}
			if !rep.Coupled {
				return nil, errors.New("bench: coupling check failed after settle")
			}
		}
		points = append(points, ConsistencyPoint{Mode: mode, Checks: checks, TransientFails: fails})
	}
	return points, nil
}

// metadataPersistenceDemo shows why P1 does not store provenance as object
// metadata (§4.3.1): deleting the object would delete its provenance. It
// returns true when the violation is demonstrated.
func MetadataPersistenceDemo(seed int64) (bool, error) {
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	cfg.Consistency = sim.Strict
	env := sim.NewEnv(cfg)
	dep := core.NewDeployment(env)
	// The rejected design: provenance inline in the object's metadata.
	meta := map[string]string{"provenance": "type=file,input=gcc_1"}
	if err := dep.Store.Put("data/mnt/f", []byte("x"), meta); err != nil {
		return false, err
	}
	if err := dep.Store.Delete("data/mnt/f"); err != nil {
		return false, err
	}
	_, err := dep.Store.Head("data/mnt/f")
	return err != nil, nil // provenance gone with the object
}
