package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/query"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// The read-path caching benchmark: a repeated-traversal workload — the
// monitoring/debugging pattern where the same lineage questions are asked
// again and again over a settled corpus — run through the composable query
// API once without and once with the versioned read-through cache. Items
// are immutable under the uuid_version naming, so the cache needs no
// invalidation; after the first pass every BFS level, version lookup and
// root resolution is served client-side and the SELECT spend collapses to
// the cold pass.

// QueryAPIRun is one measured configuration of the repeated-query workload.
type QueryAPIRun struct {
	Items       int     `json:"items"`
	Chains      int     `json:"chains"`
	Depth       int     `json:"depth"`
	Repeats     int     `json:"repeats"`
	Cached      bool    `json:"cached"`
	SimSeconds  float64 `json:"sim_seconds"`
	WallSeconds float64 `json:"wall_seconds"`
	Selects     int64   `json:"selects"` // billed SELECT requests
	TotalOps    int64   `json:"total_ops"`
	Results     int     `json:"results"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	Digest      string  `json:"digest"`
}

// QueryAPI populates a provenance-shaped domain (populateBigCorpus) and then
// runs the repeated-traversal workload: repeats rounds of
// {Q4-shaped descendants BFS, Q2-shaped versions lookup, Q3-shaped indexed
// root find}, all through query.Spec execution. cached installs the
// read-through cache before the first round. Every round's results fold
// into the digest, so a caching bug that staled or dropped results changes
// the digest instead of hiding.
func QueryAPI(seed int64, items, chains, depth, repeats int, cached bool) (QueryAPIRun, error) {
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	cfg.Consistency = sim.Strict // isolate query timing from staleness retries
	env := sim.NewEnv(cfg)
	dep := core.NewShardedDeployment(env, core.Topology{DBShards: 4})
	probeRef, err := populateBigCorpus(dep, seed, items, chains, depth)
	if err != nil {
		return QueryAPIRun{}, err
	}

	e := query.New(dep, core.BackendSDB)
	if cached {
		e.SetCache(query.NewCache(0))
	}
	workload := []query.Spec{
		{Roots: query.Roots{Attrs: []query.AttrMatch{
			{Attr: prov.AttrName, Value: "bigprog"}, {Attr: prov.AttrType, Value: "proc"},
		}}, Direction: query.Descendants, Workers: 8},
		{Roots: query.Roots{UUIDs: []uuid.UUID{probeRef.UUID}}, Direction: query.Versions, Project: query.ProjectBundles},
		{Roots: query.Roots{Attrs: []query.AttrMatch{
			{Attr: prov.AttrName, Value: "mnt/big/c0000/f05"},
		}}, Direction: query.Self},
	}

	run := QueryAPIRun{Items: items, Chains: chains, Depth: depth, Repeats: repeats, Cached: cached}
	h := sha256.New()
	ops0 := env.Meter().Usage()
	sim0 := env.Now()
	wall0 := time.Now()
	for rep := 0; rep < repeats; rep++ {
		for si, spec := range workload {
			n := 0
			for r, err := range e.Run(spec) {
				if err != nil {
					return QueryAPIRun{}, fmt.Errorf("bench: repeat %d spec %d: %w", rep, si, err)
				}
				n++
				fmt.Fprintf(h, "%d/%s@%d\n", si, r.Ref, r.Depth)
				if r.Bundle != nil {
					// Bundle bytes too: a cache serving stale or corrupted
					// bodies with the right ref set must change the digest.
					h.Write(prov.EncodeBundles([]prov.Bundle{*r.Bundle}))
				}
			}
			run.Results += n
		}
	}
	usage := env.Meter().Usage()
	run.SimSeconds = (env.Now() - sim0).Seconds()
	run.WallSeconds = time.Since(wall0).Seconds()
	run.Selects = usage.OpsByKind["sdb.Select"] - ops0.OpsByKind["sdb.Select"]
	run.TotalOps = usage.TotalOps - ops0.TotalOps
	if c := e.Cache(); c != nil {
		s := c.Stats()
		run.CacheHits, run.CacheMisses = s.Hits, s.Misses
	}
	run.Digest = hex.EncodeToString(h.Sum(nil))
	return run, nil
}
