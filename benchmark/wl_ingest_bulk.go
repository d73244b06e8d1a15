package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// ingest_bulk: bare core.P3 on a K=4 fabric, manual clock, closed loop with
// nproc clients. Large transactions (64 bundles of about 1 KB, a 4 KB data
// object) committed in waves of 256 followed by a Settle. The wire codec,
// the WAL codec, transaction assembly, sdb put/index and sqs do nearly all
// the work; pass, pasfs, frontdoor, query and translog do none.
const (
	bulkBundlesPerTxn = 64
	bulkEventsPerRep  = 150_000
	bulkWave          = 256
	bulkK             = 4
)

type bulkKeep struct {
	txns      []txn
	commitUS  sample // wall µs per Commit call (traced run only)
	commitS   float64
	settleS   float64
	noticeCnt int
}

func runIngestBulk(h *harness) error {
	clients := runtime.GOMAXPROCS(0)
	nTxns := h.scaled(bulkEventsPerRep/bulkBundlesPerTxn, 8)
	h.note("clients", clients)
	h.note("events_per_repetition", nTxns*bulkBundlesPerTxn)

	one := func(rep int) (*repRun, error) {
		t0 := time.Now()
		txns := genBulkTxns(newRNG(h.cfg.seed, fmt.Sprintf("bulk/%d", rep)), fmt.Sprintf("r%d", rep), nTxns, bulkBundlesPerTxn)
		f, err := newFabric(fabricSpec{seed: h.cfg.seed + int64(rep), k: bulkK, consistency: sim.Strict, workers: bulkK})
		if err != nil {
			return nil, err
		}
		keep := &bulkKeep{txns: txns}
		if h.tr != nil {
			unsub := f.dep.Commits.Subscribe(noticeCounter(h.tr, &keep.noticeCnt))
			f.detach = append(f.detach, unsub)
		}
		runtime.GC()
		h.setupSamples = append(h.setupSamples, time.Since(t0).Seconds())

		r := &repRun{fab: f, owns: true, ops: nTxns * bulkBundlesPerTxn, keep: keep}
		err = r.measure(func() error {
			for lo := 0; lo < len(txns); lo += bulkWave {
				hi := min(lo+bulkWave, len(txns))
				w0 := time.Now()
				waveSpan := h.tr.start(0, 0, "wave.commit")
				if err := commitWave(h.tr, waveSpan, f, txns[lo:hi], lo, clients, keep); err != nil {
					return err
				}
				h.tr.end(waveSpan)
				w1 := time.Now()
				s := h.tr.start(0, 0, "P3.Settle")
				if err := f.p3.Settle(); err != nil {
					return err
				}
				h.tr.end(s)
				keep.commitS += w1.Sub(w0).Seconds()
				keep.settleS += time.Since(w1).Seconds()
			}
			return nil
		})
		return r, err
	}
	reps, err := h.cpuReps(one)
	if err != nil {
		return err
	}
	h.cpuEndToEnd(reps, "events_per_s")
	last := reps[len(reps)-1]
	f, keep := last.fab, last.keep.(*bulkKeep)
	defer f.close()
	h.m.set("live_heap_mb", liveHeapMB(f, keep))

	// Oracle and idle probe; the readback walks short version chains.
	var sampleBundles []prov.Bundle
	var roots []prov.Ref
	pick := newRNG(h.cfg.seed, "bulk/sample")
	for i := 0; i < 64 && i < len(keep.txns); i++ {
		t := keep.txns[pick.Intn(len(keep.txns))]
		sampleBundles = append(sampleBundles, t.bundles[pick.Intn(len(t.bundles))])
		depth := min(8, len(t.bundles)-1)
		roots = append(roots, t.bundles[depth].Ref)
	}
	attrs, err := core.ItemsForBundles(f.dep.Store, sampleBundles) // what the sampled bundles must be stored as
	if err != nil {
		return err
	}
	if err := h.epilogue(f, expectation{items: last.ops, attrs: attrs}, roots); err != nil {
		return err
	}

	if h.cfg.trace {
		nT, nE := float64(len(keep.txns)), float64(last.ops)
		h.m.set("core.commit_call_us_p50", keep.commitUS.pct(50))
		h.m.set("core.commit_phase_s", keep.commitS)
		h.m.set("core.settle_phase_s", keep.settleS)
		h.m.set("core.notices", float64(keep.noticeCnt))
		h.layerCounts(last.usage, nT, nE)
		h.resilience(f)
		c := h.runProbes(probeInput{seed: h.cfg.seed, k: bulkK, txns: keep.txns})
		h.walShape(c, last.usage, nT)
		msgs := c.msgsPerTxn * nT
		h.attribute(last, map[string]float64{
			"prov.encode": c.encodeNs * nE, "prov.decode": c.decodeNs * nE,
			"sdb.put":  c.putNs * nE,
			"sqs.send": c.sendNs * msgs, "sqs.receive": c.recvNs * msgs, "sqs.delete": c.delNs * msgs,
			"store.put": c.storePutNs * nT, "store.copy": c.storeCopyNs * nT,
		})
		h.finishTrace(last.rt.cpuS)
	}
	return nil
}

// commitWave commits one wave's transactions from clients closed-loop
// clients and waits for all of them.
func commitWave(tr *tracer, parent int64, f *fabric, wave []txn, base, clients int, keep *bulkKeep) error {
	errs := make([]error, clients)
	callUS := make([]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(wave); i += clients {
				var t0 time.Time
				if tr != nil {
					t0 = time.Now()
				}
				s := tr.start(int64(base+i+1), parent, "P3.Commit")
				err := f.commit(wave[i])
				tr.end(s)
				if tr != nil {
					callUS[c] = append(callUS[c], float64(time.Since(t0))/float64(time.Microsecond))
				}
				if err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c := range errs {
		if errs[c] != nil {
			return errs[c]
		}
		keep.commitUS = append(keep.commitUS, callUS[c]...)
	}
	return nil
}
