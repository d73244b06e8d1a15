package main

import (
	"os"
	"path/filepath"
	"testing"
)

// Every workload at 1/100 size, through the oracle, untraced and traced. The
// live workloads offer a few simulated seconds of load on the scaled clock
// (a few hundred milliseconds of wall time each); their steady-state checks
// that only mean something at full size are skipped by the size gate.
func TestSmokeEveryWorkloadThroughTheOracle(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			label := name + "/untraced"
			if traced {
				label = name + "/traced"
			}
			t.Run(label, func(t *testing.T) {
				cfg := runConfig{workload: name, seed: 42, seconds: 0.25, trace: traced, size: 0.01, outDir: t.TempDir()}
				out, info, err := runOne(cfg)
				if err != nil {
					t.Fatalf("%v (envelope %v)", err, info)
				}
				if !out.Correct || out.Attempted < 1 || out.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
				}
				for _, d := range endToEnd {
					if v := out.metrics[d.Name]; !(v > 0) {
						t.Errorf("end-to-end metric %s = %v, want a positive reading", d.Name, v)
					}
				}
				if !traced {
					return
				}
				for _, d := range perLayer {
					if _, ok := out.metrics[d.Name]; !ok && mustReport[name][d.Name] {
						t.Errorf("per-layer metric %s was not measured", d.Name)
					}
				}
				if v, ok := out.metrics["trace_overhead_pct"]; !ok || v < 0 {
					t.Errorf("trace_overhead_pct = %v (measured %v)", v, ok)
				}
				files, _ := filepath.Glob(filepath.Join(cfg.outDir, "spans-*.json"))
				if len(files) != 1 {
					t.Fatalf("traced run wrote %d span files", len(files))
				}
				if st, err := os.Stat(files[0]); err != nil || st.Size() == 0 {
					t.Errorf("span file: %v", err)
				}
			})
		}
	}
}

// mustReport names, per workload, per-layer metrics whose absence would mean
// a layer the workload exists to exercise went unmeasured.
var mustReport = map[string]map[string]bool{
	"ingest_bulk":   set("prov.encode_ns_per_bundle", "prov.decode_ns_per_bundle", "sdb.put_ns_per_item", "sqs.send_ns_per_msg", "core.items_per_batchput", "cpu.attributed_share", "go.cpu_s"),
	"ingest_client": set("pass.apply_ns_per_event", "pass.closure_ns_per_commit", "merkle.closure_root_ns_per_commit", "translog.ingest_ns_per_txn", "pasfs.mount_ops", "translog.audit_s", "cpu.attributed_share"),
	"query_mix":     set("query.run_us_p50.ancestors", "query.service_ms.descendants", "sdb.select_ns.attr_eq", "sdb.select_ns.children", "query.selects_per_query", "sdb.examined_per_result", "cpu.attributed_share"),
	"commit_open":   set("core.commit_ack_ms_p50", "core.ack_to_durable_ms_p95", "sqs.backlog_mean", "sim.gen_late_p99_ms", "sim.sleep_overshoot_pct", "frontdoor.admitted", "translog.checkpoint_ms", "sim.service_ms.sqs_send_batch"),
	"fabric_mixed":  set("core.reshard.copied_items", "core.reshard.commit_p95_ms", "query.cache.hit_ratio", "query.cached_eq_uncached", "autoscale.samples", "resilient.retries", "sim.faults", "store.ops.put", "query.live_ms_p50"),
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}
