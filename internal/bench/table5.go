package bench

import (
	"time"

	"passcloud/internal/core"
	"passcloud/internal/pasfs"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/query"
	"passcloud/internal/sim"
	"passcloud/internal/workload"
)

// Table 5 of the paper: the four queries of §5.3 over the Blast workload's
// provenance, on the S3 backend (P1) and the SimpleDB backend (P2/P3),
// sequentially and in parallel, reporting time, data transferred and
// request counts.

// Table5Row is one (query, backend) cell group.
type Table5Row struct {
	Query      string
	Backend    string
	Sequential time.Duration
	Parallel   time.Duration // zero when no parallel plan exists
	MB         float64
	Ops        int64
}

// Table5Scale is the live time scale for the query measurements: Q1's
// sequential S3 plan issues ≈30 ms requests, which at scale 15 sleep ≈2 ms
// of real time each.
const Table5Scale = 15

// Table5Workers is the fan-out of the parallel plans.
const Table5Workers = 16

// populate replays the Blast workload through the given protocol so the
// deployment holds the full provenance set. Population runs with the clock
// in manual mode (instant); the caller switches the clock live before
// measuring queries.
func populate(protoName string, seed int64) (*core.Deployment, core.Backend, string, error) {
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	cfg.TimeScale = 0            // manual: population is setup, not measurement
	cfg.Consistency = sim.Strict // isolate query timing from staleness retries
	env := sim.NewEnv(cfg)
	dep := core.NewDeployment(env)
	proto, err := newProtocol(protoName, dep, core.Options{})
	if err != nil {
		return nil, 0, "", err
	}
	col := pass.New(env.Rand(), nil)
	fs := pasfs.New(env, proto, col, pasfs.Config{Collect: true, AsyncCommits: true, MaxInflight: 16})
	w := workload.Blast(sim.NewRand(seed))
	if err := fs.Run(w.Trace); err != nil {
		return nil, 0, "", err
	}
	if err := proto.Settle(); err != nil {
		return nil, 0, "", err
	}
	return dep, core.BackendOf(proto), w.Program, nil
}

// Table5 runs the four queries against both backends.
func Table5(seed int64, scale float64) ([]Table5Row, error) {
	if scale == 0 {
		scale = Table5Scale
	}
	var rows []Table5Row
	for _, be := range []struct {
		proto string
		label string
	}{
		{"P1", "S3"},
		{"P3", "SimpleDB"},
	} {
		dep, backend, program, err := populate(be.proto, seed)
		if err != nil {
			return nil, err
		}
		dep.Env.Clock().SetScale(scale) // measure queries live
		e := query.New(dep, backend)

		// Q1: all provenance, sequential then parallel (the SimpleDB plan
		// is inherently sequential — paged SELECT — so only S3 differs).
		_, mSeq, err := e.AllProvenance(1)
		if err != nil {
			return nil, err
		}
		par := time.Duration(0)
		if backend == core.BackendS3 {
			_, mPar, err := e.AllProvenance(Table5Workers)
			if err != nil {
				return nil, err
			}
			par = mPar.Elapsed
		}
		rows = append(rows, Table5Row{
			Query: "Q1", Backend: be.label,
			Sequential: mSeq.Elapsed, Parallel: par,
			MB: float64(mSeq.Bytes) / (1 << 20), Ops: mSeq.Ops,
		})

		// Q2: per-object provenance; inherently sequential (HEAD then
		// fetch). Reported per object, as in the paper.
		_, mQ2, err := e.ObjectProvenance("mnt/out/hits042.txt")
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table5Row{
			Query: "Q2", Backend: be.label,
			Sequential: mQ2.Elapsed,
			MB:         float64(mQ2.Bytes) / (1 << 20), Ops: mQ2.Ops,
		})

		// Q3: direct outputs of Blast. Q4: all its descendants.
		for _, q := range []struct {
			name string
			run  func(program string, workers int) ([]prov.Ref, query.Metrics, error)
		}{{"Q3", e.DirectOutputsOf}, {"Q4", e.DescendantsOf}} {
			_, seq, err := q.run(program, 1)
			if err != nil {
				return nil, err
			}
			_, par, err := q.run(program, Table5Workers)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table5Row{
				Query: q.name, Backend: be.label,
				Sequential: seq.Elapsed, Parallel: par.Elapsed,
				MB: float64(seq.Bytes) / (1 << 20), Ops: seq.Ops,
			})
		}
	}
	return rows, nil
}
