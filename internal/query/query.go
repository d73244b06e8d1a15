package query

import (
	"errors"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/prov"
)

// Metrics is one Table-5 cell group: time, data moved, requests issued.
type Metrics struct {
	Elapsed time.Duration
	Bytes   int64
	Ops     int64
}

// Engine plans and executes Specs against one deployment/backend pair and
// carries the optional read-through cache the database plans consult.
type Engine struct {
	dep      *core.Deployment
	backend  core.Backend
	cache    *Cache
	pushdown bool
	unsub    func()
}

// New returns an engine with no cache (every query prices exactly as the
// paper's measurements did) and filter pushdown enabled. The backend must be
// BackendS3 or BackendSDB.
func New(dep *core.Deployment, backend core.Backend) *Engine {
	return &Engine{dep: dep, backend: backend, pushdown: true}
}

// Backend returns the provenance backend queried.
func (e *Engine) Backend() core.Backend { return e.backend }

// SetCache installs (or, with nil, removes) the versioned read-through
// cache under the database executor. The store backend's whole-graph scans
// are deliberately uncached — they are the plan of last resort, and caching
// them would hide the asymmetry Table 5 exists to show. A cached engine
// filters client-side (its observations answer most reads before any SELECT
// is planned); filter pushdown applies to uncached engines. A subscription
// belongs to its cache: replacing a subscribed cache unsubscribes it first.
func (e *Engine) SetCache(c *Cache) {
	e.Unsubscribe()
	e.cache = c
}

// Cache returns the installed cache, or nil.
func (e *Engine) Cache() *Cache { return e.cache }

// SetPushdown enables or disables lowering conjunctive filter terms into
// SELECT predicates (on by default; see lowerFilter). Off restores the
// ship-everything-filter-client-side plans — the ablation the equivalence
// tests compare against.
func (e *Engine) SetPushdown(on bool) { e.pushdown = on }

// Pushdown reports whether filter pushdown is enabled.
func (e *Engine) Pushdown() bool { return e.pushdown }

// Subscribe attaches the installed cache to the deployment's commit bus:
// from this point every committed transaction invalidates exactly the
// cached observations it touches, so a long-lived warm cache stays coherent
// under continuous ingest instead of serving ever-staler sets. Observations
// cached before the subscription are dropped (they may already have missed
// commits). Idempotent while subscribed; Unsubscribe detaches.
func (e *Engine) Subscribe() error {
	if e.cache == nil {
		return errors.New("query: Subscribe needs a cache (SetCache first)")
	}
	if e.dep.Commits == nil {
		return errors.New("query: deployment has no commit bus")
	}
	if e.unsub != nil {
		return nil
	}
	c := e.cache
	c.attach(e.dep.Commits.Seq, e.dep.Env.Meter())
	e.unsub = e.dep.Commits.Subscribe(c.applyNotice)
	return nil
}

// Unsubscribe detaches the cache from the commit bus; kept entries revert
// to eventually consistent observations under the epoch and staleness
// guards.
func (e *Engine) Unsubscribe() {
	if e.unsub == nil {
		return
	}
	e.unsub()
	e.unsub = nil
	e.cache.detach()
}

// SetStalenessBound caps how old an observation the installed cache may
// serve while unsubscribed, measured on the simulated clock (0 disarms the
// bound — the default, plain eventual consistency). Subscribed caches
// ignore the bound: invalidation keeps them exact.
func (e *Engine) SetStalenessBound(d time.Duration) {
	e.cache.setBound(d, e.dep.Env.Now)
}

// measure runs f and computes the metrics delta around it.
func (e *Engine) measure(f func() error) (Metrics, error) {
	m0 := e.dep.Env.Meter().Usage()
	t0 := e.dep.Env.Now()
	err := f()
	t1 := e.dep.Env.Now()
	m1 := e.dep.Env.Meter().Usage()
	return Metrics{
		Elapsed: t1 - t0,
		Bytes:   (m1.BytesIn + m1.BytesOut) - (m0.BytesIn + m0.BytesOut),
		Ops:     m1.TotalOps - m0.TotalOps,
	}, err
}

// The four queries of the paper's §5.3, each a thin wrapper over one Spec:
//
//	Q1  retrieve all the provenance ever recorded;
//	Q2  given an object, retrieve the provenance of all its versions;
//	Q3  find all the files directly output by a named program;
//	Q4  find all the descendants of files derived from that program.
//
// The wrappers add only the Table-5 metric measurement and the final
// canonical sort the paper's scripts applied.

// procSpecRoots selects process nodes of the given program name.
func procSpecRoots(program string) Roots {
	return Roots{Attrs: []AttrMatch{
		{Attr: prov.AttrName, Value: program},
		{Attr: prov.AttrType, Value: "proc"},
	}}
}

// Q1Spec is the all-provenance query.
func Q1Spec(workers int) Spec {
	return Spec{Direction: All, Project: ProjectBundles, Workers: workers}
}

// Q2Spec is the per-object query: every version of the object a path links.
func Q2Spec(path string) Spec {
	return Spec{Roots: Roots{Paths: []string{path}}, Direction: Versions, Project: ProjectBundles}
}

// Q3Spec finds the direct outputs of a program. The paper's scripts counted
// every referencing item, so the default carries no filter; pass e.g.
// TypeIs(prov.File) to keep only file outputs (the filter both backends now
// honour).
func Q3Spec(program string, filter *Filter, workers int) Spec {
	return Spec{
		Roots:     procSpecRoots(program),
		Direction: Descendants,
		MaxDepth:  1,
		Filter:    filter,
		Workers:   workers,
	}
}

// Q4Spec finds the full transitive closure derived from a program.
func Q4Spec(program string, filter *Filter, workers int) Spec {
	return Spec{
		Roots:     procSpecRoots(program),
		Direction: Descendants,
		Filter:    filter,
		Workers:   workers,
	}
}

// AllProvenance is Q1. workers applies to the store backend's GET fan-out.
func (e *Engine) AllProvenance(workers int) ([]prov.Bundle, Metrics, error) {
	var out []prov.Bundle
	m, err := e.measure(func() error {
		var err error
		out, err = e.CollectBundles(Q1Spec(workers))
		return err
	})
	return out, m, err
}

// ObjectProvenance is Q2: a HEAD on the object resolves its uuid, then one
// targeted fetch returns the provenance of all its versions. The two
// requests are inherently sequential (§5.3), so there is no parallel plan.
func (e *Engine) ObjectProvenance(path string) ([]prov.Bundle, Metrics, error) {
	var out []prov.Bundle
	m, err := e.measure(func() error {
		var err error
		out, err = e.CollectBundles(Q2Spec(path))
		return err
	})
	return out, m, err
}

// DirectOutputsOf is Q3: items whose provenance names a process of the
// given program as a direct input. As in the paper's scripts the result is
// unfiltered — process version bumps count alongside file outputs. (The
// seed's store plan quietly filtered to files while its database plan did
// not; both backends now share the unfiltered default, and running Q3Spec
// with TypeIs(prov.File) restores the files-only view on either.)
func (e *Engine) DirectOutputsOf(program string, workers int) ([]prov.Ref, Metrics, error) {
	return e.refQuery(Q3Spec(program, nil, workers))
}

// DescendantsOf is Q4: the full transitive closure of everything derived
// from the program's outputs.
func (e *Engine) DescendantsOf(program string, workers int) ([]prov.Ref, Metrics, error) {
	return e.refQuery(Q4Spec(program, nil, workers))
}

// refQuery measures a ref-projected spec and returns the canonically sorted
// result set.
func (e *Engine) refQuery(spec Spec) ([]prov.Ref, Metrics, error) {
	var out []prov.Ref
	m, err := e.measure(func() error {
		var err error
		out, err = e.CollectRefs(spec)
		return err
	})
	sortRefs(out)
	return out, m, err
}
