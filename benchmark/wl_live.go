package main

import (
	"passcloud/internal/frontdoor"
	"passcloud/internal/sim"
	"time"
)

// liveTenants: two tenants sharing the fabric 60/40, each with a quota far
// enough above its share of the offered rate that Poisson bursts queue
// briefly at worst and nothing is shed.
func liveTenants(rate float64) ([]tenantSpec, []float64) {
	q := func(share float64) frontdoor.Quota {
		return frontdoor.Quota{Rate: 3 * share * rate, Burst: 32, MaxQueue: 256, Priority: frontdoor.PriorityHigh}
	}
	return []tenantSpec{{id: "tenant-a", quota: q(0.6)}, {id: "tenant-b", quota: q(0.4)}}, []float64{0.6, 1.0}
}

// commit_open: the SLO workload. A static K=2 fabric, strict consistency, no
// faults; Poisson 60 txn/s through two front-door tenants into core.P3 with
// an 8-worker daemon pool and the log checkpointing every 5 simulated
// seconds. Transactions are 1–2 bundle pure-provenance flushes (no S3 data
// leg), so the latency distribution is unimodal: p50 is service time, p95
// is queueing. CPU optimisations should leave it unchanged.
func runCommitOpen(h *harness) error {
	const rate = 60
	tenants, split := liveTenants(rate)
	return liveWorkload(h, liveSpec{
		fab: fabricSpec{
			seed: h.cfg.seed, k: 2, consistency: sim.Strict, workers: 8,
			tenants: tenants, translog: true,
		},
		split:       split,
		commitRate:  rate,
		liveDurable: true,
	})
}

// fabric_mixed: everything on at once, eventual consistency. Starts at K=1;
// Poisson 30 txn/s (10% with a 4 KB data object, a fifth of file writes
// revising an earlier file) beside 5 queries/s through a subscribed cache of
// 256 entries, smaller than the working set, so hits, invalidations and
// evictions all occur; 2% uniform transient faults (half of the
// mutating ones ambiguous) under the default resilient layers; log
// checkpoints; a sampling-only autoscale controller stepped every 5
// simulated seconds; and an explicit Reshard 1→4 a third of the way into the
// measured window. Writes beside reads beside a live migration.
func runFabricMixed(h *harness) error {
	const rate = 30
	tenants, split := liveTenants(rate)
	return liveWorkload(h, liveSpec{
		fab: fabricSpec{
			seed: h.cfg.seed, k: 1, consistency: sim.Eventual, workers: 8,
			tenants: tenants, translog: true, cache: 256, control: true,
			faults: sim.UniformPlan(0.02, 0.5),
		},
		split:      split,
		commitRate: rate,
		queryRate:  5,
		dataShare:  0.15, // of the file-writing two thirds: one transaction in ten
		reviseP:    0.20,
		preload:    100,
		reshardTo:  4,
		reshardAt:  4 * time.Second,
	})
}
