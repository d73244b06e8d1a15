package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"

	"passcloud/internal/core"
	"passcloud/internal/fabric"
	"passcloud/internal/prov"
	"passcloud/internal/query"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// The coherent-reads benchmark: a continuously-ingesting commit+query
// workload — the monitoring pattern where lineage dashboards re-ask the
// same questions while P3 keeps committing new provenance underneath them.
// Four reader strategies run the identical query set over the identical
// fabric after every ingest round:
//
//	uncached    no cache: every round re-bills the full walk (the baseline
//	            every strategy must match byte for byte);
//	subscribed  a warm cache attached to the commit bus: each committed
//	            transaction invalidates exactly the observations it touched,
//	            so rounds re-read only what actually changed;
//	flush       a warm cache flushed before each round — the only correct
//	            cache strategy available before commit notices existed;
//	stale       a warm cache neither subscribed nor flushed: the negative
//	            control, expected to serve pre-ingest observations and
//	            diverge.
//
// The run also measures conjunctive filter pushdown over the final corpus:
// find- and Q3/Q4-shaped filtered specs executed with pushdown on and off
// must stream byte-identical results while examining strictly fewer items.

// CoherentReadsConfig parameterizes one coherent-reads run.
type CoherentReadsConfig struct {
	Seed         int64
	Rounds       int // ingest+query rounds
	TxnsPerRound int // worker-chain transactions committed per round
	Depth        int // file-version chain length per transaction
	Workers      int // P3 commit-daemon pool and query fan-out
	DBShards     int // fabric width
}

// CoherentModeStats is one reader strategy's accumulated query-phase cost.
type CoherentModeStats struct {
	SimSeconds float64 // query phases only
	Results    int
	Digest     string

	CoherenceHits int64
	Invalidations int64
}

// PushdownCase compares one filtered spec with pushdown on and off.
type PushdownCase struct {
	Name        string
	Plan        string // Describe with pushdown on
	ExaminedOn  int64
	ExaminedOff int64
	SelectsOn   int64
	SelectsOff  int64
	Identical   bool
}

// CoherentReadsRun is the measured outcome of one configuration.
type CoherentReadsRun struct {
	Modes         map[string]CoherentModeStats
	Pushdown      []PushdownCase
	CommitNotices int64 // published on the bus
}

// CostRatio returns how much cheaper (in simulated read seconds) mode is
// than the uncached baseline.
func (r CoherentReadsRun) CostRatio(mode string) float64 {
	m, u := r.Modes[mode], r.Modes["uncached"]
	if m.SimSeconds == 0 {
		return 0
	}
	return u.SimSeconds / m.SimSeconds
}

// coherentTxn is one committed transaction of the ingest workload.
type coherentTxn struct {
	obj     core.FileObject
	bundles []prov.Bundle
}

// coherentRound builds round r of the ingest stream: a new version of the
// long-lived "ingestd" process (so version sets keep growing under the
// readers) plus TxnsPerRound worker chains, each a "workerprog" process
// reading from ingestd's first version and writing a Depth-version file
// chain. Every bundle carries a round attribute, giving the pushdown cases
// a selective indexed term.
func coherentRound(rnd *sim.Rand, c CoherentReadsConfig, r int, rootUUID uuid.UUID) []coherentTxn {
	tag := fmt.Sprintf("r%03d", r)
	rootV1 := prov.Ref{UUID: rootUUID, Version: 1}
	rootRef := prov.Ref{UUID: rootUUID, Version: r + 1}
	rootRecords := []prov.Record{
		{Attr: prov.AttrType, Value: "proc"},
		{Attr: prov.AttrName, Value: "ingestd"},
		{Attr: "round", Value: tag},
	}
	if r > 0 {
		rootRecords = append(rootRecords, prov.Record{
			Attr: prov.AttrPrevVer, Xref: prov.Ref{UUID: rootUUID, Version: r},
		})
	}
	out := []coherentTxn{{
		obj: core.FileObject{Path: "mnt/daemon/ingestd", Size: 512, Ref: rootRef},
		bundles: []prov.Bundle{
			{Ref: rootRef, Type: prov.Process, Name: "ingestd", Records: rootRecords},
		},
	}}
	for t := 0; t < c.TxnsPerRound; t++ {
		workerRef := prov.Ref{UUID: uuid.New(rnd), Version: 1}
		path := fmt.Sprintf("mnt/chain/%s/t%04d", tag, t)
		bundles := []prov.Bundle{{
			Ref: workerRef, Type: prov.Process, Name: "workerprog",
			Records: []prov.Record{
				{Attr: prov.AttrType, Value: "proc"},
				{Attr: prov.AttrName, Value: "workerprog"},
				{Attr: prov.AttrInput, Xref: rootV1},
				{Attr: "round", Value: tag},
			},
		}}
		fileUUID := uuid.New(rnd)
		last := workerRef
		for v := 1; v <= c.Depth; v++ {
			ref := prov.Ref{UUID: fileUUID, Version: v}
			records := []prov.Record{
				{Attr: prov.AttrType, Value: "file"},
				{Attr: prov.AttrName, Value: path},
				{Attr: prov.AttrInput, Xref: last},
				{Attr: "round", Value: tag},
			}
			if v > 1 {
				records = append(records, prov.Record{
					Attr: prov.AttrPrevVer, Xref: prov.Ref{UUID: fileUUID, Version: v - 1},
				})
			}
			bundles = append(bundles, prov.Bundle{Ref: ref, Type: prov.File, Name: path, Records: records})
			last = ref
		}
		out = append(out, coherentTxn{
			obj:     core.FileObject{Path: path, Size: 2048, Ref: last},
			bundles: bundles,
		})
	}
	return out
}

// CoherentReads runs the continuous-ingest workload and the pushdown
// comparison on one deployment, so every reader strategy and both pushdown
// modes see exactly the same committed corpus.
func CoherentReads(c CoherentReadsConfig) (CoherentReadsRun, error) {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.DBShards <= 0 {
		c.DBShards = 2
	}
	cfg := sim.DefaultConfig()
	cfg.Seed = c.Seed
	cfg.Consistency = sim.Strict // isolate read cost from staleness retries
	// Manual clock throughout: nothing is started, Settle drains each round.
	f, err := fabric.New(fabric.Config{
		Sim: cfg, Topology: kWay(c.DBShards), Workers: c.Workers,
		CacheEntries: query.DefaultCacheEntries,
	})
	if err != nil {
		return CoherentReadsRun{}, err
	}
	defer f.Close()
	env, dep, p3 := f.Env, f.Dep, f.P3
	rnd := sim.NewRand(c.Seed)
	rootUUID := uuid.New(rnd)

	run := CoherentReadsRun{Modes: make(map[string]CoherentModeStats, 4)}

	// The reader strategies; every mode owns an engine, the cached ones own
	// a cache each, and the subscribed one is the fabric's, attached to the
	// commit bus before the first commit.
	type reader struct {
		mode   string
		e      *query.Engine
		digest hash.Hash
		stats  CoherentModeStats
	}
	var readers []*reader
	addReader := func(mode string, e *query.Engine) *reader {
		r := &reader{mode: mode, e: e, digest: sha256.New(), stats: CoherentModeStats{}}
		readers = append(readers, r)
		return r
	}
	cached := func() *query.Engine {
		e := query.New(dep, core.BackendSDB)
		e.SetCache(query.NewCache(0))
		return e
	}
	addReader("uncached", query.New(dep, core.BackendSDB))
	addReader("subscribed", f.Engine)
	flush := addReader("flush", cached())
	addReader("stale", cached())

	var probeUUID uuid.UUID // round-0 chain: its version set never grows again
	for r := 0; r < c.Rounds; r++ {
		txns := coherentRound(rnd, c, r, rootUUID)
		if r == 0 {
			probeUUID = txns[1].bundles[1].Ref.UUID
		}
		for i := range txns {
			if err := p3.Commit(txns[i].obj, txns[i].bundles); err != nil {
				return run, fmt.Errorf("bench: round %d commit %d: %w", r, i, err)
			}
		}
		if err := p3.Settle(); err != nil {
			return run, fmt.Errorf("bench: round %d settle: %w", r, err)
		}
		dep.Settle()

		specs := []query.Spec{
			// The dashboard walk: everything ever derived from ingestd.
			{Roots: query.Roots{Attrs: []query.AttrMatch{
				{Attr: prov.AttrName, Value: "ingestd"}, {Attr: prov.AttrType, Value: "proc"},
			}}, Direction: query.Descendants, Workers: c.Workers},
			// The growing version set of the long-lived process.
			{Roots: query.Roots{UUIDs: []uuid.UUID{rootUUID}}, Direction: query.Versions,
				Project: query.ProjectBundles},
			// The growing worker roster (attr-observation invalidation).
			{Roots: query.Roots{Attrs: []query.AttrMatch{
				{Attr: prov.AttrName, Value: "workerprog"}, {Attr: prov.AttrType, Value: "proc"},
			}}, Direction: query.Self},
			// A settled round-0 chain: the pure coherent-hit path.
			{Roots: query.Roots{UUIDs: []uuid.UUID{probeUUID}}, Direction: query.Versions,
				Project: query.ProjectBundles},
		}
		for _, rd := range readers {
			if rd == flush {
				rd.e.Cache().Flush()
			}
			t0 := env.Now()
			for si, spec := range specs {
				for res, err := range rd.e.Run(spec) {
					if err != nil {
						return run, fmt.Errorf("bench: round %d mode %s spec %d: %w", r, rd.mode, si, err)
					}
					rd.stats.Results++
					fmt.Fprintf(rd.digest, "%d/%d/%s@%d\n", r, si, res.Ref, res.Depth)
					if res.Bundle != nil {
						rd.digest.Write(prov.EncodeBundles([]prov.Bundle{*res.Bundle}))
					}
				}
			}
			rd.stats.SimSeconds += (env.Now() - t0).Seconds()
		}
	}

	for _, rd := range readers {
		if cs := rd.e.Cache(); cs != nil {
			s := cs.Stats()
			rd.stats.CoherenceHits, rd.stats.Invalidations = s.CoherenceHits, s.Invalidations
		}
		rd.stats.Digest = hex.EncodeToString(rd.digest.Sum(nil))
		run.Modes[rd.mode] = rd.stats
	}
	run.CommitNotices = env.Meter().Usage().CommitNotices

	// Pushdown comparison over the final corpus: the same filtered spec with
	// lowering on and off must stream identical bytes while the on-mode
	// SELECTs examine strictly fewer candidates.
	probePath := fmt.Sprintf("mnt/chain/r%03d/t%04d", 0, 0)
	cases := []struct {
		name string
		spec query.Spec
	}{
		{"find-all-procs", query.Spec{
			Direction: query.All, Filter: query.TypeIs(prov.Process),
		}},
		{"q3-named-output", query.Spec{
			Roots: query.Roots{Attrs: []query.AttrMatch{
				{Attr: prov.AttrName, Value: "workerprog"}, {Attr: prov.AttrType, Value: "proc"},
			}},
			Direction: query.Descendants, MaxDepth: 1,
			Filter:  query.And(query.TypeIs(prov.File), query.NameIs(probePath)),
			Workers: c.Workers,
		}},
		{"q4-depth-bounded", query.Spec{
			Roots: query.Roots{Attrs: []query.AttrMatch{
				{Attr: prov.AttrName, Value: "ingestd"}, {Attr: prov.AttrType, Value: "proc"},
			}},
			Direction: query.Descendants, MaxDepth: 3,
			Filter:  query.NameIs(probePath),
			Workers: c.Workers,
		}},
	}
	pe := query.New(dep, core.BackendSDB)
	runCase := func(spec query.Spec, on bool) (string, int64, int64, error) {
		pe.SetPushdown(on)
		u0 := env.Meter().Usage()
		h := sha256.New()
		for res, err := range pe.Run(spec) {
			if err != nil {
				return "", 0, 0, err
			}
			fmt.Fprintf(h, "%s@%d", res.Ref, res.Depth)
			if res.Bundle != nil {
				h.Write(prov.EncodeBundles([]prov.Bundle{*res.Bundle}))
			}
			h.Write([]byte{'\n'})
		}
		u1 := env.Meter().Usage()
		return hex.EncodeToString(h.Sum(nil)),
			u1.ItemsExamined - u0.ItemsExamined,
			u1.OpsByKind["sdb.Select"] - u0.OpsByKind["sdb.Select"], nil
	}
	for _, pc := range cases {
		pe.SetPushdown(true)
		out := PushdownCase{Name: pc.name, Plan: pe.Describe(pc.spec)}
		digOn, exOn, selOn, err := runCase(pc.spec, true)
		if err != nil {
			return run, fmt.Errorf("bench: pushdown case %s (on): %w", pc.name, err)
		}
		digOff, exOff, selOff, err := runCase(pc.spec, false)
		if err != nil {
			return run, fmt.Errorf("bench: pushdown case %s (off): %w", pc.name, err)
		}
		out.ExaminedOn, out.SelectsOn = exOn, selOn
		out.ExaminedOff, out.SelectsOff = exOff, selOff
		out.Identical = digOn == digOff
		run.Pushdown = append(run.Pushdown, out)
	}
	return run, nil
}
