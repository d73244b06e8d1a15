package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricDef names one metric the benchmark prints. The same table is
// written to BENCHMARK.json at the repository root; metrics_test.go fails
// when the two disagree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening, share of the parent's median
}

const (
	lower  = "lower"
	higher = "higher"
)

// workloadNames are fixed; later issues cite them.
var workloadNames = []string{"ingest_bulk", "ingest_client", "query_mix", "commit_open", "fabric_mixed"}

// workloadWhy is each workload's one-line reason, as BENCHMARK.json carries
// it; README.md has the long form.
var workloadWhy = map[string]string{
	"ingest_bulk":   "Bulk commits (64 bundles of 1 KB) into bare P3 at K=4 on the manual clock: wire codec, WAL codec, assembly, sdb put and sqs do the work; pass, pasfs, frontdoor, query and translog do none.",
	"ingest_client": "The paper's client path (trace, PASS collector, PA-S3fs, front door, P3, translog, subscribed cache) on the manual clock: 2-3 small bundles per commit, so per-transaction overhead dominates.",
	"query_mix":     "Uncached query engine over a 100k-item K=4 store, one client, manual clock, zipf roots: planner, indexes and scatter-gather; the cache is bypassed, so a cache change must not move it.",
	"commit_open":   "Open-loop Poisson 60 txn/s on a static K=2 fabric, live clock x10, no faults, no data leg: the SLO workload, p50 is service time and p95 queueing; a CPU optimisation should not move it.",
	"fabric_mixed":  "Everything at once on the live clock: 30 txn/s beside 5 queries/s through a small coherent cache, 2% faults, translog, controller sampling, and a live reshard 1->4 under load.",
}

// manifest renders BENCHMARK.json from the tables below (a per-layer
// metric has no bound, so the field is omitted there).
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var wls []wl
	for _, n := range workloadNames {
		wls = append(wls, wl{n, workloadWhy[n]})
	}
	return json.MarshalIndent(struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{[]string{"bash", "benchmark/run.sh"}, []string{"benchmark"}, runSeconds, wls, endToEnd, perLayer}, "", "  ")
}

// runSeconds is how long the driver lets one run measure.
const runSeconds = 10

// endToEnd are the client-observed metrics. Every workload reports every one
// of them (README, "End-to-end metrics", says which come from the workload's
// own timed region and which from the epilogue). Bounds follow the spreads
// measured on this box over ten seeds: the counting and simulated-time
// metrics get at least three times the widest spread any workload showed;
// the wall-clock ones get the contract's ceiling, because whole runs on this
// shared host drift by more than a third of it.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"wall_s", "s", lower, 0.25},
	{"events_per_s", "1/s", higher, 0.25},
	{"queries_per_s", "1/s", higher, 0.25},
	{"alloc_bytes_per_op", "B", lower, 0.10},
	{"live_heap_mb", "MiB", lower, 0.10},
	{"billed_ops_per_kop", "count", lower, 0.10},
	{"usd_per_kop", "USD", lower, 0.08},
	{"commit_p50_ms", "ms", lower, 0.04},
	{"commit_p95_ms", "ms", lower, 0.12},
	{"durable_p50_ms", "ms", lower, 0.10},
	{"durable_p95_ms", "ms", lower, 0.10},
	{"query_service_ms", "ms", lower, 0.02},
}

// perLayer are the traced run's metrics, layer.metric. A layer a workload
// does not exercise reports 0 there, which is itself the measurement ("zero
// on commit_open").
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// go
	add(lower, "s", "go.cpu_s")
	add(lower, "ratio", "go.cpu_share", "go.gc_cpu_share")
	add(lower, "count", "go.mallocs_per_op", "go.gc_cycles")
	// prov
	add(lower, "ns", "prov.encode_ns_per_bundle", "prov.decode_ns_per_bundle")
	add(lower, "B", "prov.encode_alloc_b_per_bundle", "prov.decode_alloc_b_per_bundle", "prov.wire_bytes_per_bundle")
	// pass / merkle / pasfs
	add(lower, "ns", "pass.apply_ns_per_event", "pass.closure_ns_per_commit")
	add(lower, "B", "pass.alloc_b_per_event")
	add(lower, "ns", "merkle.closure_root_ns_per_commit", "merkle.log_root_ns_per_leaf", "merkle.inclusion_ns")
	add(lower, "s", "pasfs.run_s")
	add(lower, "count", "pasfs.mount_ops")
	// core
	add(lower, "us", "core.commit_call_us_p50")
	add(lower, "s", "core.commit_phase_s", "core.settle_phase_s")
	add(lower, "ms", "core.commit_ack_ms_p50", "core.commit_p99_ms", "core.ack_to_durable_ms_p50", "core.ack_to_durable_ms_p95")
	add(higher, "count", "core.items_per_batchput")
	add(lower, "count", "core.wal_entries_per_txn", "core.notices")
	add(lower, "count", "core.reshard.copied_items", "core.reshard.gc_items", "core.reshard.wal_moved", "core.reshard.billed_ops")
	add(lower, "s", "core.reshard.window_s")
	add(lower, "ratio", "core.reshard.copy_amplification")
	add(lower, "ms", "core.reshard.commit_p95_ms", "core.reshard.durable_p50_ms")
	// cloud/sqs
	add(lower, "count", "sqs.ops.send_batch", "sqs.ops.receive", "sqs.ops.delete_batch")
	add(lower, "count", "sqs.backlog_mean", "sqs.backlog_max", "sqs.gate_depth_mean", "sqs.gate_depth_max")
	add(lower, "ns", "sqs.send_ns_per_msg", "sqs.receive_ns_per_msg", "sqs.delete_ns_per_msg")
	// cloud/sdb
	add(lower, "count", "sdb.ops.batch_put", "sdb.ops.select")
	add(lower, "ns", "sdb.put_ns_per_item")
	add(lower, "B", "sdb.put_alloc_b_per_item")
	add(lower, "ns", "sdb.select_ns.attr_eq", "sdb.select_ns.versions", "sdb.select_ns.children", "sdb.select_ns.items_in")
	add(lower, "ratio", "sdb.examined_per_result")
	add(lower, "count", "sdb.gate_depth_mean", "sdb.gate_depth_max")
	add(lower, "B", "sdb.live_bytes_per_item")
	// cloud/store
	add(lower, "count", "store.ops.put", "store.ops.copy", "store.ops.delete", "store.ops.get")
	add(lower, "count", "store.gate_depth_mean", "store.gate_depth_max")
	add(lower, "ns", "store.put_ns", "store.copy_ns")
	// sim
	add(lower, "ms",
		"sim.service_ms.sqs_send_batch", "sim.service_ms.sqs_receive", "sim.service_ms.sqs_delete_batch",
		"sim.service_ms.sdb_batch_put", "sim.service_ms.sdb_select",
		"sim.service_ms.s3_put", "sim.service_ms.s3_copy", "sim.service_ms.s3_delete")
	add(lower, "ns", "sim.route_ns_per_key")
	add(lower, "ms", "sim.gen_late_p99_ms")
	add(lower, "%", "sim.sleep_overshoot_pct")
	add(lower, "count", "sim.faults")
	// resilient
	add(lower, "count", "resilient.retries", "resilient.breaker_opens", "resilient.hedges", "resilient.budget_exhausted")
	// frontdoor
	add(higher, "count", "frontdoor.admitted")
	add(lower, "count", "frontdoor.queued", "frontdoor.shed")
	add(higher, "count", "frontdoor.entries_per_send")
	add(lower, "ms", "frontdoor.commit_ms_p99")
	// query
	add(lower, "us", "query.run_us_p50.self", "query.run_us_p50.versions", "query.run_us_p50.ancestors", "query.run_us_p50.descendants")
	add(lower, "ms", "query.service_ms.self", "query.service_ms.versions", "query.service_ms.ancestors", "query.service_ms.descendants")
	add(lower, "count", "query.selects_per_query", "query.results_per_query")
	add(higher, "ratio", "query.cache.hit_ratio")
	add(lower, "count", "query.cache.invalidations", "query.cache.evictions")
	add(higher, "count", "query.cache.coherence_hits")
	add(lower, "ms", "query.live_ms_p50", "query.live_ms_p95")
	add(higher, "count", "query.cached_eq_uncached")
	// translog
	add(lower, "ns", "translog.ingest_ns_per_txn", "translog.proof_ns")
	add(lower, "ms", "translog.checkpoint_ms")
	add(lower, "count", "translog.checkpoint_ops", "translog.size")
	add(lower, "s", "translog.audit_s")
	// autoscale
	add(lower, "us", "autoscale.step_us")
	add(lower, "count", "autoscale.samples", "autoscale.holds")
	// the trace itself, and the CPU attribution split
	add(lower, "%", "trace_overhead_pct")
	add(higher, "ratio", "cpu.attributed_share")
	add(lower, "ratio", "cpu.unattributed_share")
	return out
}

// metricSet collects a run's named values. A name not in the tables is a
// bug in the benchmark, caught at output.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) { m[name] = v }

// outcome is one run's result in the builder's contract.
type outcome struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	metrics   metricSet
	defs      []metricDef
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MarshalJSON prints exactly the keys correct, attempted, failed, metrics,
// with every metric of the selected table and nothing else.
func (o outcome) MarshalJSON() ([]byte, error) {
	vals := make(map[string]metricValue, len(o.defs))
	for _, d := range o.defs {
		v := o.metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		vals[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, vals})
}

// strays lists metrics that were set but belong to neither table.
func (m metricSet) strays() []string {
	known := make(map[string]bool)
	for _, d := range endToEnd {
		known[d.Name] = true
	}
	for _, d := range perLayer {
		known[d.Name] = true
	}
	var out []string
	for n := range m {
		if !known[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
