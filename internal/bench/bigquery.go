package bench

import (
	"fmt"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/query"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// The large-N query benchmark: Table-5-style equality and traversal queries
// over a provenance-shaped SimpleDB domain of ≥100k items, run once through
// the indexed SELECT engine and once with the indexes disabled (the seed
// implementation's full-scan behaviour). The comparison demonstrates that
// provenance reads — the bottleneck at the ROADMAP's millions-of-objects
// scale — cost time proportional to the result, not the domain.

// BigQueryCell is one measured query of the large-N benchmark.
type BigQueryCell struct {
	Query       string  `json:"query"`
	SimSeconds  float64 `json:"sim_seconds"`
	WallSeconds float64 `json:"wall_seconds"`
	Ops         int64   `json:"ops"`
	Results     int     `json:"results"`
}

// BigQueryRun is one full pass over the query set.
type BigQueryRun struct {
	Items     int            `json:"items"`
	Chains    int            `json:"chains"`
	Depth     int            `json:"depth"`
	ForceScan bool           `json:"force_scan"`
	Cells     []BigQueryCell `json:"cells"`
}

// Cell returns the named cell (zero value when absent).
func (r BigQueryRun) Cell(name string) BigQueryCell {
	for _, c := range r.Cells {
		if c.Query == name {
			return c
		}
	}
	return BigQueryCell{}
}

// populateBigCorpus fills dep with items provenance-shaped items: chains
// derivation chains of the given depth rooted at one process of program
// "bigprog", padded with unrelated noise files. It returns the last file of
// the first chain, the probe of the targeted queries.
func populateBigCorpus(dep *core.Deployment, seed int64, items, chains, depth int) (probe prov.Ref, err error) {
	if items < chains*depth+1 {
		return probe, fmt.Errorf("bench: %d items cannot hold %d chains of depth %d", items, chains, depth)
	}
	rnd := sim.NewRand(seed)
	newRef := func() prov.Ref { return prov.Ref{UUID: uuid.New(rnd), Version: 1} }
	procRef := newRef()
	specs := []core.ItemSpec{{Ref: procRef, Type: "proc", Name: "bigprog"}}
	for c := 0; c < chains; c++ {
		parent := procRef
		for l := 0; l < depth; l++ {
			ref := newRef()
			specs = append(specs, core.ItemSpec{
				Ref:   ref,
				Type:  "file",
				Name:  fmt.Sprintf("mnt/big/c%04d/f%02d", c, l),
				Input: parent.String(),
			})
			parent = ref
		}
		if c == 0 {
			probe = parent
		}
	}
	for len(specs) < items {
		specs = append(specs, core.ItemSpec{
			Ref:  newRef(),
			Type: "file",
			Name: fmt.Sprintf("mnt/noise/%07d", len(specs)),
		})
	}
	if err := core.PopulateItems(dep.DB, specs); err != nil {
		return probe, err
	}
	// Warm the per-shard sorted name tables (built lazily after bulk
	// population) so the first measured query does not absorb the one-time
	// sort.
	_, err = dep.DB.Select("select itemName() from "+core.DomainName+" limit 1", "")
	return probe, err
}

// BigQuery populates a domain (populateBigCorpus) and measures four
// Table-5-style queries:
//
//	equality     FindByAttr on one file name (Q3's lookup shape);
//	versions     ReadProvenance of one uuid (Q2's per-object shape);
//	direct-out   Q3, the direct outputs of the program;
//	descendants  Q4, the BFS transitive closure from the program.
//
// forceScan disables the secondary indexes for the comparison run. The
// environment is strict-consistency on a manual clock, so simulated times
// are deterministic for a given seed.
func BigQuery(seed int64, items, chains, depth int, forceScan bool) (BigQueryRun, error) {
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	cfg.Consistency = sim.Strict // isolate query timing from staleness retries
	env := sim.NewEnv(cfg)
	dep := core.NewDeployment(env)
	dep.DB.SetForceScan(forceScan)
	probeRef, err := populateBigCorpus(dep, seed, items, chains, depth)
	if err != nil {
		return BigQueryRun{}, err
	}

	run := BigQueryRun{Items: items, Chains: chains, Depth: depth, ForceScan: forceScan}
	measure := func(name string, f func() (int, error)) error {
		ops0 := env.Meter().Usage().TotalOps
		sim0 := env.Now()
		wall0 := time.Now()
		n, err := f()
		if err != nil {
			return fmt.Errorf("bench: big query %s: %w", name, err)
		}
		run.Cells = append(run.Cells, BigQueryCell{
			Query:       name,
			SimSeconds:  (env.Now() - sim0).Seconds(),
			WallSeconds: time.Since(wall0).Seconds(),
			Ops:         env.Meter().Usage().TotalOps - ops0,
			Results:     n,
		})
		return nil
	}

	e := query.New(dep, core.BackendSDB)
	steps := []struct {
		name string
		f    func() (int, error)
	}{
		{"equality", func() (int, error) {
			// FindByAttr's shape as a Spec: one indexed SELECT, no traversal.
			refs, err := e.CollectRefs(query.Spec{
				Roots:     query.Roots{Attrs: []query.AttrMatch{{Attr: prov.AttrName, Value: "mnt/big/c0000/f05"}}},
				Direction: query.Self,
			})
			return len(refs), err
		}},
		{"versions", func() (int, error) {
			// ReadProvenance's shape as a Spec: a routed single-shard prefix
			// SELECT over the uuid's version items.
			bundles, err := e.CollectBundles(query.Spec{
				Roots:     query.Roots{UUIDs: []uuid.UUID{probeRef.UUID}},
				Direction: query.Versions,
			})
			return len(bundles), err
		}},
		{"direct-out", func() (int, error) {
			refs, _, err := e.DirectOutputsOf("bigprog", 1)
			return len(refs), err
		}},
		{"descendants", func() (int, error) {
			refs, _, err := e.DescendantsOf("bigprog", 1)
			return len(refs), err
		}},
	}
	for _, s := range steps {
		if err := measure(s.name, s.f); err != nil {
			return BigQueryRun{}, err
		}
	}
	return run, nil
}
