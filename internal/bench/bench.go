// Package bench regenerates every table and figure of the paper's
// evaluation (§5): the Table-1 property matrix, the Table-2 per-service
// upload microbenchmark, the Table-3 data/operation overheads, the Table-4
// costs, the Table-5 query performance, the Figure-3 protocol
// microbenchmark and the Figure-4 workload benchmarks — plus the ablations
// of the design choices §5.1 tunes (connection counts, WAL chunk size,
// batch size, consistency). The later fabric harnesses (sharding, reshard,
// chaos, tenants, translog, autoscale) share one rig, rig.go, over the stack
// internal/fabric wires; its package comment is the system map.
//
// Workload experiments run the simulation live (virtual time = wall time ×
// scale) so protocol concurrency, gate contention and daemon interference
// show up in elapsed time exactly as they would against real services.
package bench

import (
	"fmt"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/fabric"
	"passcloud/internal/pasfs"
	"passcloud/internal/pass"
	"passcloud/internal/sim"
	"passcloud/internal/workload"
)

// DefaultScale is the live-mode time scale used by the workload
// experiments: 200 simulated seconds per real second keeps the measured
// path's per-request sleeps (≈2 s simulated) around 10 ms of real time —
// comfortably above timer noise — while a full workload run stays under
// ten wall seconds.
const DefaultScale = 200

// Table2Scale is the scale for the high-concurrency service uploads, whose
// shortest gated request (an SQS send, 0.85 s simulated) then sleeps
// ≈8.5 ms of real time.
const Table2Scale = 100

// Setup describes one experimental cell.
type Setup struct {
	Protocol string // "S3fs", "P1", "P2", "P3"
	Site     sim.Site
	Era      sim.Era
	UML      bool
	Seed     int64
	Scale    float64 // live-mode time scale; 0 means DefaultScale
}

// envConfig builds the simulation config for a setup.
func (s Setup) envConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Seed = s.Seed
	cfg.Site = s.Site
	cfg.Era = s.Era
	cfg.UML = s.UML
	cfg.TimeScale = s.Scale
	if cfg.TimeScale == 0 {
		cfg.TimeScale = DefaultScale
	}
	return cfg
}

// Result is one measured cell.
type Result struct {
	Setup    Setup
	Workload string
	Elapsed  time.Duration // client-visible elapsed (excludes commit daemon)
	CostUSD  float64       // includes the commit daemon (as in Table 4)
	Usage    sim.Usage
	MountOps int64
}

// newProtocol instantiates a protocol by evaluation name.
func newProtocol(name string, dep *core.Deployment, opts core.Options) (core.Protocol, error) {
	for _, f := range core.Factories() {
		if f.Name == name {
			return f.New(dep, opts), nil
		}
	}
	return nil, fmt.Errorf("bench: unknown protocol %q", name)
}

// measure runs body against the setup's protocol on a fresh deployment and
// returns the client-visible elapsed time of body alone. For P3 the commit
// daemons run for the duration of body (their service contention is felt);
// they are stopped and joined and the WAL settled before measure returns, so
// the environment's meter is final: the drain is excluded from the elapsed
// time, as in §5, and included in the bill, as in Table 4.
func measure(s Setup, body func(*sim.Env, core.Protocol) error) (time.Duration, *sim.Env, error) {
	env := sim.NewEnv(s.envConfig())
	proto, err := newProtocol(s.Protocol, core.NewDeployment(env), core.Options{})
	if err != nil {
		return 0, nil, err
	}
	stopDaemons := func() {}
	if p3, ok := proto.(*core.P3); ok {
		stopDaemons = fabric.RunDaemons(p3, 2*time.Second)
	}
	start := env.Now()
	err = body(env, proto)
	elapsed := env.Now() - start
	stopDaemons()
	if serr := proto.Settle(); err == nil {
		err = serr
	}
	return elapsed, env, err
}

// RunWorkload replays one workload through PA-S3fs under the setup's
// protocol and environment, returning the measured cell.
func RunWorkload(w workload.Workload, s Setup) (Result, error) {
	var fs *pasfs.FS
	elapsed, env, err := measure(s, func(env *sim.Env, proto core.Protocol) error {
		collect := s.Protocol != "S3fs"
		var col *pass.Collector
		if collect {
			col = pass.New(env.Rand(), nil)
		}
		fs = pasfs.New(env, proto, col, pasfs.Config{
			Collect:      collect,
			AsyncCommits: true,
			MaxInflight:  16,
		})
		return fs.Run(w.Trace)
	})
	if err != nil {
		return Result{}, fmt.Errorf("bench: %s/%s: %w", w.Name, s.Protocol, err)
	}
	usage := env.Meter().Usage()
	return Result{
		Setup:    s,
		Workload: w.Name,
		Elapsed:  elapsed,
		CostUSD:  usage.Cost(env.Config().StorageWindow),
		Usage:    usage,
		MountOps: fs.MountOps(),
	}, nil
}

// Overhead returns the relative elapsed-time overhead of r against base.
func Overhead(r, base Result) float64 {
	if base.Elapsed <= 0 {
		return 0
	}
	return float64(r.Elapsed-base.Elapsed) / float64(base.Elapsed) * 100
}

// seconds formats a virtual duration the way the paper's tables do.
func seconds(d time.Duration) float64 { return d.Seconds() }
