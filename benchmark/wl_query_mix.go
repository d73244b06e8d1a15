package main

import (
	"fmt"
	"runtime"
	"time"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/query"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// query_mix: the read side of the sdb layer the ingest workloads write to.
// core.PopulateItems preloads 100k items at K=4 (40 programs × 100 chains ×
// depth 10, plus noise); then one client on the manual clock runs an
// uncached query.Engine over a mix of five shapes whose root chains are
// drawn zipf(1.1). One client on the manual clock makes the modelled service
// time per query repeat exactly, so a planner or pushdown change shows as a
// count. The cache is deliberately bypassed: a cache change must not move
// this workload.
const (
	qmPrograms      = 40
	qmChainsPer     = 100
	qmDepth         = 10
	qmItems         = 100_000
	qmQueriesPerRep = 10_000
	qmK             = 4
	qmPreloads      = 5 // the preload is set up this many times; the median is reported
)

// qmKind is one query shape of the mix.
type qmKind int

const (
	qmAncestors   qmKind = iota // Ancestors+bundles from a chain's leaf
	qmVersions                  // Versions+bundles of a chain's file
	qmFind                      // attr-equality Self find by name
	qmDescendants               // Descendants from a mid-chain version
	qmOutputs                   // Q3: direct outputs of a program (1 in 50)
	qmKinds
)

var qmDirection = [qmKinds]string{"ancestors", "versions", "self", "descendants", "descendants"}

type qmQuery struct {
	kind qmKind
	spec query.Spec
	want int // exact result count the generator's graph implies
}

// genQueries draws n query specs over g.
func genQueries(r rng, g queryGraph, n int) []qmQuery {
	ranks := zipfRanks(r, n, uint64(len(g.chains)-1))
	out := make([]qmQuery, n)
	for i := range out {
		ch := g.chains[ranks[i]]
		kind := qmKind(i % 4)
		if r.Intn(50) == 0 {
			kind = qmOutputs
		}
		q := qmQuery{kind: kind}
		switch kind {
		case qmAncestors:
			leaf := prov.Ref{UUID: ch.uuid, Version: g.depth}
			q.spec = query.Spec{Roots: query.Roots{Refs: []prov.Ref{leaf}}, Direction: query.Ancestors, Project: query.ProjectBundles}
			q.want = g.depth + 1 // every version plus the program's process
		case qmVersions:
			q.spec = query.Spec{Roots: query.Roots{UUIDs: []uuid.UUID{ch.uuid}}, Direction: query.Versions, Project: query.ProjectBundles}
			q.want = g.depth
		case qmFind:
			q.spec = query.Spec{Roots: query.Roots{Attrs: []query.AttrMatch{{Attr: prov.AttrName, Value: ch.path}}}, Direction: query.Self}
			q.want = g.depth
		case qmDescendants:
			mid := prov.Ref{UUID: ch.uuid, Version: g.depth / 2}
			q.spec = query.Spec{Roots: query.Roots{Refs: []prov.Ref{mid}}, Direction: query.Descendants}
			q.want = g.depth - g.depth/2
		case qmOutputs:
			q.spec = query.Q3Spec(g.programs[r.Intn(len(g.programs))], nil, 1)
			q.want = len(g.chains) / len(g.programs)
		}
		out[i] = q
	}
	return out
}

type qmKeep struct {
	runUS     [qmKinds]sample // wall µs per Engine.Run, by shape (traced only)
	serviceMs [qmKinds]sample // simulated ms per query, by shape (traced only)
	selects   [qmKinds]int64
	results   int
}

func runQueryMix(h *harness) error {
	chainsPer := h.scaled(qmChainsPer, 2)
	items := h.scaled(qmItems, qmPrograms*(chainsPer*qmDepth+1))
	nQueries := h.scaled(qmQueriesPerRep, 40)
	h.note("items", items)
	h.note("queries_per_repetition", nQueries)

	// Set-up: generate the corpus once, preload it qmPreloads times on
	// fresh fabrics (keeping the last), and issue one warming SELECT so the
	// lazily built sorted name table is not charged to the first query.
	g := genQueryGraph(newRNG(h.cfg.seed, "querygraph"), qmPrograms, chainsPer, qmDepth, items)
	h.setupOnce = time.Since(procStart).Seconds()
	var f *fabric
	var preloadPerS sample
	for i := 0; i < qmPreloads; i++ {
		if f != nil {
			f.close()
			f = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if f, err = newFabric(fabricSpec{seed: h.cfg.seed, k: qmK, consistency: sim.Strict, workers: qmK}); err != nil {
			return err
		}
		p0 := time.Now()
		if err := core.PopulateItems(f.dep.DB, g.specs); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		preloadPerS = append(preloadPerS, float64(len(g.specs))/time.Since(p0).Seconds())
		if _, err := f.dep.DB.Select("select itemName() from "+core.DomainName+" limit 1", ""); err != nil {
			return fmt.Errorf("warming select: %w", err)
		}
		h.setupSamples = append(h.setupSamples, time.Since(t0).Seconds())
	}
	defer f.close()
	preloadUsage := f.env.Meter().Usage()
	e := query.New(f.dep, core.BackendSDB)

	// Repetitions share the preloaded fabric: queries do not change it.
	reps, err := h.cpuReps(func(rep int) (*repRun, error) {
		qs := genQueries(newRNG(h.cfg.seed, fmt.Sprintf("queries/%d", rep)), g, nQueries)
		keep := &qmKeep{}
		runtime.GC()
		r := &repRun{fab: f, ops: len(qs), keep: keep}
		return r, r.measure(func() error {
			for i, q := range qs {
				var w0 time.Time
				var s0 time.Duration
				var sel0 int64
				if h.tr != nil {
					sel0 = f.env.Meter().Usage().OpsByKind["sdb.Select"]
					w0, s0 = time.Now(), f.env.Now()
				}
				span := h.tr.start(int64(i+1), 0, "Engine.Run")
				n := 0
				for _, err := range e.Run(q.spec) {
					if err != nil {
						return fmt.Errorf("query %d (%s): %w", i, qmDirection[q.kind], err)
					}
					n++
				}
				h.tr.end(span)
				if n != q.want {
					return fmt.Errorf("query %d (%s): %d results, the corpus implies %d", i, qmDirection[q.kind], n, q.want)
				}
				keep.results += n
				if h.tr != nil {
					keep.runUS[q.kind] = append(keep.runUS[q.kind], float64(time.Since(w0))/float64(time.Microsecond))
					keep.serviceMs[q.kind] = append(keep.serviceMs[q.kind], ms(f.env.Now()-s0))
					keep.selects[q.kind] += f.env.Meter().Usage().OpsByKind["sdb.Select"] - sel0
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	h.cpuEndToEnd(reps, "queries_per_s")
	last := reps[len(reps)-1]
	keep := last.keep.(*qmKeep)
	// The modelled service time per query: what the timed repetitions
	// advanced the manual clock by, over their queries. Nothing else runs,
	// so the clock moves only by the service time of each request.
	var svc sample
	for _, r := range reps {
		svc = append(svc, r.simMs/float64(r.ops))
	}
	h.m.set("query_service_ms", svc.median())
	h.m.set("events_per_s", preloadPerS.pct(75)) // the preload's rate: items stored per wall second
	h.m.set("live_heap_mb", liveHeapMB(f, g))

	// Oracle: the preload is the only writer; sampled items must be stored
	// exactly as specified.
	pick := newRNG(h.cfg.seed, "query/sample")
	var attrs []sdb.PutRequest
	var roots []prov.Ref
	for i := 0; i < 64; i++ {
		s := g.specs[pick.Intn(len(g.specs))]
		req := sdb.PutRequest{Item: s.Ref.String(), Attrs: []sdb.Attr{{Name: prov.AttrType, Value: s.Type}}}
		if s.Name != "" {
			req.Attrs = append(req.Attrs, sdb.Attr{Name: prov.AttrName, Value: s.Name})
		}
		if s.Input != "" {
			req.Attrs = append(req.Attrs, sdb.Attr{Name: prov.AttrInput, Value: s.Input})
		}
		attrs = append(attrs, req)
		roots = append(roots, prov.Ref{UUID: g.chains[pick.Intn(len(g.chains))].uuid, Version: g.depth})
	}
	if err := h.epilogue(f, expectation{items: len(g.specs), attrs: attrs}, roots); err != nil {
		return err
	}

	if h.cfg.trace {
		nQ := float64(last.ops)
		h.layerCounts(last.usage, nQ, 0)
		h.resilience(f)
		h.m.set("query.selects_per_query", ratio(float64(last.usage.ops["sdb.Select"]), nQ))
		h.m.set("query.results_per_query", ratio(float64(keep.results), nQ))
		h.m.set("sdb.examined_per_result", ratio(float64(last.usage.u1.ItemsExamined-last.usage.u0.ItemsExamined), float64(keep.results)))
		for k := qmKind(0); k < qmKinds; k++ {
			if k == qmOutputs {
				continue // folded into descendants below
			}
			us, sv := keep.runUS[k], keep.serviceMs[k]
			if k == qmDescendants {
				us, sv = append(us, keep.runUS[qmOutputs]...), append(sv, keep.serviceMs[qmOutputs]...)
			}
			h.m.set("query.run_us_p50."+qmDirection[k], us.pct(50))
			h.m.set("query.service_ms."+qmDirection[k], sv.mean())
		}
		// The preload is this workload's write side of sdb.
		h.m.set("sdb.ops.batch_put", float64(preloadUsage.OpsByKind["sdb.BatchPutAttributes"]))
		h.m.set("core.items_per_batchput", ratio(float64(len(g.specs)), float64(preloadUsage.OpsByKind["sdb.BatchPutAttributes"])))

		reqs := make([]sdb.PutRequest, 0, 20_000)
		for i := 0; i < len(g.specs) && len(reqs) < cap(reqs); i++ {
			s := g.specs[i]
			reqs = append(reqs, sdb.PutRequest{Item: s.Ref.String(), Replace: true, Attrs: []sdb.Attr{
				{Name: prov.AttrType, Value: s.Type}, {Name: prov.AttrName, Value: s.Name}, {Name: prov.AttrInput, Value: s.Input},
			}})
		}
		c := h.runProbes(probeInput{seed: h.cfg.seed, k: qmK, items: reqs})
		shapeOf := [qmKinds]string{"items_in", "versions", "attr_eq", "children", "children"}
		parts := map[string]float64{}
		for k := qmKind(0); k < qmKinds; k++ {
			parts["sdb.select."+shapeOf[k]] += c.selectNs[shapeOf[k]] * float64(keep.selects[k])
		}
		h.attribute(last, parts)
		h.finishTrace(last.rt.cpuS)
	}
	return nil
}
