package bench

import (
	"fmt"
	"strings"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/par"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/workload"
)

// The §5.1 protocol microbenchmark: run the Blast workload on an unmodified
// PASS system (here: the collector alone, no cloud traffic), capture its
// provenance, then replay just the uploads — the final result objects and
// their provenance — through each protocol. This isolates protocol
// throughput from application time.

// MicroResult is one bar of Figure 3 plus the Table-3 columns.
type MicroResult struct {
	Protocol    string
	UML         bool
	Elapsed     time.Duration
	DataMB      float64 // total bytes transmitted (Table 3 "Data Transmitted")
	Ops         int64   // operations issued (Table 3 "Operations")
	OverheadPct float64 // vs the S3fs bar of the same environment
}

// capturedRun is the offline capture shared by every protocol's replay.
type capturedRun struct {
	finals  []core.FileObject
	closure [][]prov.Bundle
}

// captureBlast runs Blast through PASS only and extracts the final-result
// objects with their provenance closures, in trace order.
func captureBlast(seed int64) (*capturedRun, error) {
	w := workload.Blast(sim.NewRand(seed))
	col := pass.New(sim.NewRand(seed+1), nil)
	for _, ev := range w.Trace.Events {
		if err := col.Apply(ev); err != nil {
			return nil, err
		}
	}
	var run capturedRun
	seen := make(map[string]bool)
	for _, ev := range w.Trace.Events {
		if ev.Path == "" || seen[ev.Path] || !strings.HasPrefix(ev.Path, w.FinalPrefix) {
			continue
		}
		seen[ev.Path] = true
		ref, ok := col.FileRef(ev.Path)
		if !ok {
			continue
		}
		bundles := col.PendingFor(ev.Path)
		for _, b := range bundles {
			col.MarkRecorded(b.Ref)
		}
		run.finals = append(run.finals, core.FileObject{
			Path: ev.Path,
			Size: col.FileSize(ev.Path),
			Ref:  ref,
		})
		run.closure = append(run.closure, bundles)
	}
	return &run, nil
}

// upload commits the captured results through proto, dispatched with the
// same in-flight window the workload client uses.
func (run *capturedRun) upload(env *sim.Env, proto core.Protocol) error {
	const window = 16
	return par.ForEach(window, len(run.finals), func(i int) error {
		// The upload tool pays the client-side per-op cost too.
		env.ClientOp(int(run.finals[i].Size))
		return proto.Commit(run.finals[i], run.closure[i])
	})
}

// RunMicro uploads the captured Blast results through one protocol and
// measures elapsed time, bytes and operations.
func RunMicro(run *capturedRun, s Setup) (MicroResult, error) {
	elapsed, env, err := measure(s, run.upload)
	if err != nil {
		return MicroResult{}, fmt.Errorf("bench: micro %s: %w", s.Protocol, err)
	}
	u := env.Meter().Usage()
	return MicroResult{
		Protocol: s.Protocol,
		UML:      s.UML,
		Elapsed:  elapsed,
		DataMB:   float64(u.BytesIn+u.BytesOut) / (1 << 20),
		Ops:      u.TotalOps,
	}, nil
}

// Fig3 runs the microbenchmark for every protocol on EC2 and under UML —
// the eight bars of Figure 3 — and fills in Table 3's overhead columns.
func Fig3(seed int64, scale float64) (ec2, uml []MicroResult, err error) {
	run, err := captureBlast(seed)
	if err != nil {
		return nil, nil, err
	}
	for _, umlMode := range []bool{false, true} {
		var rs []MicroResult
		var base MicroResult
		for _, f := range core.Factories() {
			s := Setup{Protocol: f.Name, Site: sim.SiteEC2, Era: sim.EraSept09, UML: umlMode, Seed: seed, Scale: scale}
			r, err := RunMicro(run, s)
			if err != nil {
				return nil, nil, err
			}
			if f.Name == "S3fs" {
				base = r
			}
			r.OverheadPct = float64(r.Elapsed-base.Elapsed) / float64(base.Elapsed) * 100
			rs = append(rs, r)
		}
		if umlMode {
			uml = rs
		} else {
			ec2 = rs
		}
	}
	return ec2, uml, nil
}

// Table3 derives the data-transfer and operation overheads from the EC2
// microbenchmark results (the paper's Table 3 comes from the same runs).
type Table3Row struct {
	Protocol   string
	DataMB     float64
	DataPct    float64
	Ops        int64
	OpsPct     float64
	ElapsedSec float64
}

// Table3 formats micro results as the Table-3 rows.
func Table3(rs []MicroResult) []Table3Row {
	var base MicroResult
	for _, r := range rs {
		if r.Protocol == "S3fs" {
			base = r
		}
	}
	rows := make([]Table3Row, 0, len(rs))
	for _, r := range rs {
		row := Table3Row{Protocol: r.Protocol, DataMB: r.DataMB, Ops: r.Ops, ElapsedSec: seconds(r.Elapsed)}
		if r.Protocol != "S3fs" && base.DataMB > 0 {
			row.DataPct = (r.DataMB - base.DataMB) / base.DataMB * 100
			row.OpsPct = float64(r.Ops-base.Ops) / float64(base.Ops) * 100
		}
		rows = append(rows, row)
	}
	return rows
}
