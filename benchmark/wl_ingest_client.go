package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/frontdoor"
	"passcloud/internal/pasfs"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/trace"
)

// ingest_client: the paper's real client path with everything attached, on
// the manual clock. A Blast-shaped system-call stream goes through the PASS
// collector and PA-S3fs, which commits through a front-door tenant into
// core.P3, with the transparency log on the commit bus and a subscribed
// query cache receiving invalidations. Two or three small bundles per
// transaction, so per-transaction overhead dominates and the codec is a
// small share — the opposite of ingest_bulk on the same write path.
const (
	clientBatchesPerRep = 2000 // = 4k commits = 10k items (+1: the shared database)
	clientSlice         = 512  // commits between Drain+Settle
	clientK             = 4
)

type clientKeep struct {
	tr       trace.Trace
	col      *pass.Collector
	fs       *pasfs.FS
	commits  []txn // every commit pasfs handed the protocol
	applyS   float64
	settleS  float64
	notices  int
	commitUS sample
}

func runIngestClient(h *harness) error {
	inflight := runtime.GOMAXPROCS(0)
	batches := h.scaled(clientBatchesPerRep, 6)
	h.note("max_inflight", inflight)
	h.note("batches_per_repetition", batches)
	quota := frontdoor.Quota{Rate: 1e6, Burst: 1e6, MaxQueue: 1 << 20} // far above the offered rate

	one := func(rep int) (*repRun, error) {
		t0 := time.Now()
		salt := fmt.Sprintf("r%d", rep)
		tr := genBlastTrace(newRNG(h.cfg.seed, "blast/"+salt), salt, batches)
		f, err := newFabric(fabricSpec{
			seed: h.cfg.seed + int64(rep), k: clientK, consistency: sim.Strict, workers: clientK,
			tenants:  []tenantSpec{{id: "client", quota: quota}},
			translog: true, cache: 4096,
		})
		if err != nil {
			return nil, err
		}
		keep := &clientKeep{tr: tr}
		keep.col = pass.New(newRNG(h.cfg.seed, "pass/"+salt), nil)
		var mu sync.Mutex
		proto := tenantProtocol{t: f.tenants[0], p3: f.p3}
		proto.onCommit = func(obj core.FileObject, bundles []prov.Bundle, call func() error) error {
			mu.Lock()
			id := int64(len(keep.commits) + 1)
			keep.commits = append(keep.commits, txn{obj: obj, bundles: bundles})
			mu.Unlock()
			if h.tr == nil {
				return call()
			}
			c0 := time.Now()
			s := h.tr.start(id, 0, "Tenant.Commit")
			err := call()
			h.tr.end(s)
			us := float64(time.Since(c0)) / float64(time.Microsecond)
			mu.Lock()
			keep.commitUS = append(keep.commitUS, us)
			mu.Unlock()
			return err
		}
		keep.fs = pasfs.New(f.env, proto, keep.col, pasfs.Config{Collect: true, AsyncCommits: true, MaxInflight: inflight})
		if h.tr != nil {
			f.detach = append(f.detach, f.dep.Commits.Subscribe(noticeCounter(h.tr, &keep.notices)))
		}
		runtime.GC()
		h.setupSamples = append(h.setupSamples, time.Since(t0).Seconds())

		r := &repRun{fab: f, owns: true, keep: keep}
		err = r.measure(func() error {
			flush := func() error {
				w0 := time.Now()
				s := h.tr.start(0, 0, "P3.Settle")
				defer func() { h.tr.end(s); keep.settleS += time.Since(w0).Seconds() }()
				if err := keep.fs.Drain(); err != nil {
					return err
				}
				return f.p3.Settle()
			}
			commits := 0
			w0 := time.Now()
			slice := h.tr.start(0, 0, "fs.Apply")
			for _, ev := range tr.Events {
				if err := keep.fs.Apply(ev); err != nil {
					return err
				}
				if ev.Kind == trace.Close && pasfs.OnMount(ev.Path) {
					if commits++; commits%clientSlice == 0 {
						h.tr.end(slice)
						keep.applyS += time.Since(w0).Seconds()
						if err := flush(); err != nil {
							return err
						}
						w0 = time.Now()
						slice = h.tr.start(0, 0, "fs.Apply")
					}
				}
			}
			h.tr.end(slice)
			keep.applyS += time.Since(w0).Seconds()
			return flush()
		})
		r.ops = keep.col.Graph().Len() // every node of the stream is an ancestor of some closed mount file
		return r, err
	}
	reps, err := h.cpuReps(one)
	if err != nil {
		return err
	}
	h.cpuEndToEnd(reps, "events_per_s")
	last := reps[len(reps)-1]
	f, keep := last.fab, last.keep.(*clientKeep)
	defer f.close()
	h.m.set("live_heap_mb", liveHeapMB(f, keep))
	h.note("commits_per_repetition", len(keep.commits))

	// Expectation: sampled graph nodes must be stored as collected; the
	// readback walks report -> formatter -> raw hits -> blastall -> inputs.
	nodes := keep.col.Graph().Nodes()
	pick := newRNG(h.cfg.seed, "client/sample")
	var sampleBundles []prov.Bundle
	var roots []prov.Ref
	for i := 0; i < 64 && i < len(nodes); i++ {
		sampleBundles = append(sampleBundles, nodes[pick.Intn(len(nodes))].Bundle())
	}
	for i := 0; i < len(keep.commits) && len(roots) < 64; i++ {
		// One shape for every readback root: a report and its five ancestors.
		if c := keep.commits[i]; strings.HasPrefix(c.obj.Path, "mnt/out/") {
			roots = append(roots, c.obj.Ref)
		}
	}
	attrs, err := core.ItemsForBundles(f.dep.Store, sampleBundles) // what the sampled bundles must be stored as
	if err != nil {
		return err
	}
	if err := h.epilogue(f, expectation{items: last.ops, attrs: attrs}, roots); err != nil {
		return err
	}

	if h.cfg.trace {
		nT, nE := float64(len(keep.commits)), float64(last.ops)
		h.m.set("core.commit_call_us_p50", keep.commitUS.pct(50))
		h.m.set("core.commit_phase_s", keep.applyS)
		h.m.set("core.settle_phase_s", keep.settleS)
		h.m.set("core.notices", float64(keep.notices))
		h.m.set("pasfs.run_s", keep.applyS)
		h.m.set("pasfs.mount_ops", float64(keep.fs.MountOps()))
		h.layerCounts(last.usage, nT, nE)
		h.resilience(f)
		h.m.set("query.cache.invalidations", float64(f.engine.Cache().Stats().Invalidations))
		c := h.runProbes(probeInput{seed: h.cfg.seed, k: clientK, txns: keep.commits, events: keep.tr.Events})
		h.walShape(c, last.usage, nT)
		msgs := c.msgsPerTxn * nT
		bundles := c.bundlesPerTxn * nT
		h.attribute(last, map[string]float64{
			"prov.encode": c.encodeNs * bundles, "prov.decode": c.decodeNs * bundles,
			"sdb.put":  c.putNs * nE,
			"sqs.send": c.sendNs * msgs, "sqs.receive": c.recvNs * msgs, "sqs.delete": c.delNs * msgs,
			"store.put": c.storePutNs * nT, "store.copy": c.storeCopyNs * nT,
			"pass.apply": c.applyNs * float64(len(keep.tr.Events)), "pass.closure": c.closureNs * nT,
			"merkle.closure_root": c.closureRootNs * nT,
			"translog.ingest":     c.ingestNs * nT,
		})
		h.finishTrace(last.rt.cpuS)
	}
	return nil
}
