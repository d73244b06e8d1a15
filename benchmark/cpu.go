package main

import (
	"fmt"
	"time"

	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// The CPU workloads run on the manual clock: nothing sleeps, so wall time is
// the Go code and nothing else, and simulated time is only a count of the
// service time the run's requests would have cost. Each runs one warm-up
// repetition and then timed repetitions on fresh inputs until -seconds of
// timed wall time have passed (at least minReps); allocation and billing
// figures are the median over the timed repetitions, throughput the quartile
// on the fast side.

const minReps = 3

// repRun is one repetition: what it cost, and the fabric it ran on. A
// repetition that built its own fabric sets owns; it is kept only for the
// last repetition, which the epilogue inspects.
type repRun struct {
	fab   *fabric
	owns  bool
	ops   int     // events made durable, or queries completed
	simMs float64 // simulated ms the region advanced the manual clock by
	rt    rtDelta
	usage usageDelta

	keep any // workload-specific state the epilogue and probes need
}

// usageDelta is what the cost meter saw across a timed region.
type usageDelta struct {
	billed float64
	usd    float64
	ops    map[string]int64
	u0, u1 sim.Usage
}

func usageSince(u1, u0 sim.Usage) usageDelta {
	d := usageDelta{
		billed: float64(u1.TotalOps - u0.TotalOps),
		usd:    u1.Cost(0) - u0.Cost(0),
		ops:    make(map[string]int64, len(u1.OpsByKind)),
		u0:     u0, u1: u1,
	}
	for k, v := range u1.OpsByKind {
		d.ops[k] = v - u0.OpsByKind[k]
	}
	return d
}

// measure runs body as the repetition's timed region on its fabric.
func (r *repRun) measure(body func() error) error {
	f := r.fab
	u0, s0 := f.env.Meter().Usage(), f.env.Now()
	r0 := readRT()
	err := body()
	r.rt = readRT().since(r0)
	r.simMs = ms(f.env.Now() - s0)
	r.usage = usageSince(f.env.Meter().Usage(), u0)
	return err
}

// cpuReps drives the repetition loop. one builds and runs repetition rep;
// it appends its own set-up time to h.setupSamples.
func (h *harness) cpuReps(one func(rep int) (*repRun, error)) ([]*repRun, error) {
	var reps []*repRun
	var total float64
	for rep := 0; ; rep++ {
		h.tr.reset() // the trace keeps the last repetition only
		if rep == 0 && h.setupOnce == 0 {
			h.setupOnce = time.Since(procStart).Seconds()
		}
		r, err := one(rep)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", rep, err)
		}
		if rep == 0 {
			h.warmupS = r.rt.wallS
		} else {
			reps = append(reps, r)
			total += r.rt.wallS
		}
		if len(reps) >= minReps && total >= h.cfg.seconds {
			return reps, nil
		}
		// Release this repetition's store before the next one builds its
		// own, so no repetition marks two fabrics' heaps.
		if r.owns {
			r.fab.close()
		}
		r.fab, r.keep = nil, nil
	}
}

// cpuEndToEnd fills the end-to-end metrics a CPU workload's own timed
// region defines, and the go.* layer; rate is "events_per_s" or
// "queries_per_s".
func (h *harness) cpuEndToEnd(reps []*repRun, rate string) {
	var perS, allocPerOp, billedPerK, usdPerK, mallocsPerOp, wallPerRep sample
	var rt rtDelta
	for _, r := range reps {
		ops := float64(r.ops)
		perS = append(perS, ops/r.rt.wallS)
		allocPerOp = append(allocPerOp, r.rt.allocBytes/ops)
		mallocsPerOp = append(mallocsPerOp, r.rt.mallocs/ops)
		billedPerK = append(billedPerK, r.usage.billed/ops*1000)
		usdPerK = append(usdPerK, r.usage.usd/ops*1000)
		wallPerRep = append(wallPerRep, r.rt.wallS)
		rt.add(r.rt)
		h.attempted += r.ops
	}
	// Rate and wall time are read at the quartile on the fast side, not the
	// median: a neighbour on this shared host only ever slows a repetition,
	// and over three sweeps of ten runs the fast quartile spread less than
	// the median every time (README, "Observed spreads"). The counting
	// metrics below repeat to a fraction of a percent and keep the median.
	h.m.set(rate, perS.pct(75))
	h.m.set("wall_s", wallPerRep.pct(25)) // one repetition's fixed work
	h.note("timed_wall_s", rt.wallS)
	h.m.set("alloc_bytes_per_op", allocPerOp.median())
	h.m.set("billed_ops_per_kop", billedPerK.median())
	h.m.set("usd_per_kop", usdPerK.median())
	h.note("repetitions", len(reps))
	h.note(rate+"_samples", []float64(perS))

	h.goLayer(rt, mallocsPerOp.median())
}

// goLayer reports what a timed region cost the Go side.
func (h *harness) goLayer(rt rtDelta, mallocsPerOp float64) {
	h.m.set("go.cpu_s", rt.cpuS)
	h.m.set("go.cpu_share", rt.cpuShare())
	h.m.set("go.gc_cpu_share", ratio(rt.gcCPUS, rt.cpuS))
	h.m.set("go.mallocs_per_op", mallocsPerOp)
	h.m.set("go.gc_cycles", rt.gcCycles)
}

// epilogue runs the oracle and the idle probe on the last repetition's (or
// the live run's) fabric and fills every end-to-end metric the workload's
// timed region did not (README, "What each metric means on each workload").
func (h *harness) epilogue(f *fabric, want expectation, roots []prov.Ref) error {
	w0 := time.Now()
	rep, err := f.oracle(want)
	if err != nil {
		return err
	}
	oracleS := time.Since(w0).Seconds()
	h.m.set("translog.audit_s", rep.auditS)
	h.m.set("translog.checkpoint_ops", float64(rep.checkpointOp))
	if _, ok := h.m["translog.checkpoint_ms"]; !ok {
		h.m.set("translog.checkpoint_ms", rep.checkpointMs)
	}
	if f.log != nil {
		h.m.set("translog.size", float64(f.log.Size()))
	}

	p, err := f.runIdleProbe(h.cfg.seed, roots)
	if err != nil {
		return err
	}
	fill := func(name string, v float64) {
		if _, ok := h.m[name]; !ok {
			h.m.set(name, v)
		}
	}
	fill("commit_p50_ms", p.commitMs.pct(50))
	fill("commit_p95_ms", p.commitMs.pct(95))
	fill("durable_p50_ms", p.durableMs.pct(50))
	fill("durable_p95_ms", p.durableMs.pct(95))
	fill("query_service_ms", p.queryServiceMs)
	fill("queries_per_s", p.queriesPerS)
	h.note("epilogue_wall_s", map[string]float64{"oracle": oracleS, "log_audit": rep.auditS, "probe": time.Since(w0).Seconds() - oracleS})
	h.note("probe", map[string]any{
		"commits": len(p.commitMs), "queries": p.queries, "query_results": p.queryResults,
		"idle_commit_ms_p50": p.commitMs.pct(50), "idle_durable_ms_p50": p.durableMs.pct(50),
		"idle_query_service_ms": p.queryServiceMs, "readback_queries_per_s": p.queriesPerS,
	})
	return nil
}
