package main

import (
	"fmt"

	"passcloud/internal/core"
)

// The traced run's per-layer figures that are read from public counters
// (sim.Meter.Usage, resilient.Client.Stats, query.Cache.Stats,
// autoscale.Controller.Status) rather than timed.

// noticeCounter counts CommitNotices and marks each arrival in the trace.
// The bus delivers notices one at a time, under its own lock.
func noticeCounter(tr *tracer, n *int) func(core.CommitNotice) int64 {
	return func(core.CommitNotice) int64 {
		*n++
		tr.point(0, 0, "notice")
		return 0
	}
}

// layerCounts reports each service's request counts over a timed region,
// per 1000 transactions (or queries), and the ratios of useful outcomes to
// attempts that can be read from them.
func (h *harness) layerCounts(u usageDelta, txns, items float64) {
	perK := func(kind string) float64 { return ratio(float64(u.ops[kind])*1000, txns) }
	h.m.set("sqs.ops.send_batch", perK("sqs.SendMessageBatch"))
	h.m.set("sqs.ops.receive", perK("sqs.ReceiveMessage"))
	h.m.set("sqs.ops.delete_batch", perK("sqs.DeleteMessageBatch"))
	h.m.set("sdb.ops.batch_put", perK("sdb.BatchPutAttributes"))
	h.m.set("sdb.ops.select", perK("sdb.Select"))
	h.m.set("store.ops.put", perK("s3.PUT"))
	h.m.set("store.ops.copy", perK("s3.COPY"))
	h.m.set("store.ops.delete", perK("s3.DELETE"))
	h.m.set("store.ops.get", perK("s3.GET"))
	// Group coalescing: items made durable per BatchPutAttributes call
	// (25 is a full batch).
	h.m.set("core.items_per_batchput", ratio(items, float64(u.ops["sdb.BatchPutAttributes"])))
	h.m.set("sim.faults", float64(u.u1.Faults-u.u0.Faults))

	var admitted, queued, shed int64
	for id, t := range u.u1.OpsByTenant {
		t0 := u.u0.OpsByTenant[id]
		admitted += t.Admitted - t0.Admitted
		queued += t.Queued - t0.Queued
		shed += t.Shed - t0.Shed
	}
	h.m.set("frontdoor.admitted", float64(admitted))
	h.m.set("frontdoor.queued", float64(queued))
	h.m.set("frontdoor.shed", float64(shed))
}

// resilience reports the retry layers' counters: the per-endpoint client
// every service routes through plus the front door's tenant-scoped one.
func (h *harness) resilience(f *fabric) {
	t := f.dep.Res.Stats().Totals()
	if f.door != nil {
		d := f.door.Resilience().Stats().Totals()
		t.Retries += d.Retries
		t.BreakerOpens += d.BreakerOpens
		t.Hedges += d.Hedges
		t.BudgetDenials += d.BudgetDenials
	}
	h.m.set("resilient.retries", float64(t.Retries))
	h.m.set("resilient.breaker_opens", float64(t.BreakerOpens))
	h.m.set("resilient.hedges", float64(t.Hedges))
	h.m.set("resilient.budget_exhausted", float64(t.BudgetDenials))
}

// walShape reports how a transaction maps onto WAL entries and how well the
// front door's combiner packs them into batch calls.
func (h *harness) walShape(c unitCosts, u usageDelta, txns float64) {
	h.m.set("core.wal_entries_per_txn", c.msgsPerTxn)
	h.m.set("frontdoor.entries_per_send", ratio(c.msgsPerTxn*txns, float64(u.ops["sqs.SendMessageBatch"])))
}

// setReshardLayer reports what a migration moved and what it billed.
func (h *harness) setReshardLayer(st core.ReshardStats, billed int64) {
	h.m.set("core.reshard.copied_items", float64(st.CopiedItems))
	h.m.set("core.reshard.gc_items", float64(st.GCItems))
	h.m.set("core.reshard.wal_moved", float64(st.WALMigrated))
	h.m.set("core.reshard.billed_ops", float64(billed))
}

// attribute sums replay-probe unit costs times the last repetition's
// operation counts and reports the share of the repetition's CPU seconds
// they explain. Reported, not gated: what is left over is the cost no probe
// isolates (goroutine hand-offs, the meter's mutex, map growth, GC assist).
func (h *harness) attribute(r *repRun, parts map[string]float64) {
	var ns float64
	for _, v := range parts {
		ns += v
	}
	share := ratio(ns/1e9, r.rt.cpuS)
	h.m.set("cpu.attributed_share", share)
	h.m.set("cpu.unattributed_share", 1-share)
	attributed := make(map[string]float64, len(parts))
	for k, v := range parts {
		attributed[k] = v / 1e9
	}
	h.note("cpu_attribution_s", attributed)
	h.note("cpu_last_repetition_s", r.rt.cpuS)
}

// finishTrace states what tracing itself cost and writes the spans out.
// The overhead is the calibrated cost of recording one span times the spans
// recorded, as a share of the CPU seconds of the region they were recorded
// in: the difference between a traced and an untraced run of the same seed
// is far inside run-to-run noise, so it is computed, not subtracted.
func (h *harness) finishTrace(regionCPUS float64) {
	spans := h.tr.snapshot()
	per := calibrateTracer()
	h.m.set("trace_overhead_pct", 100*ratio(float64(len(spans))*per.Seconds(), regionCPUS))
	h.note("spans", len(spans))
	h.note("span_record_ns", per.Nanoseconds())
	stats := selfTimes(spans)
	summary := make(map[string]any, len(stats))
	for name, s := range stats {
		summary[name] = map[string]any{"count": s.Count, "total_s": s.Total.Seconds(), "self_s": s.Self.Seconds()}
	}
	h.note("span_self_times", summary)
	name := fmt.Sprintf("spans-%s-%d.json", h.cfg.workload, h.cfg.seed)
	if path, err := writeSpans(h.cfg.outDir, name, spans); err != nil {
		h.note("spans_file_error", err.Error())
	} else {
		h.note("spans_file", path)
	}
}
