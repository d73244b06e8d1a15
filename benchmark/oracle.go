package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/query"
	"passcloud/internal/translog"
	"passcloud/internal/uuid"
)

// expectation is what a workload's generator says the fabric must hold once
// everything it committed is durable.
type expectation struct {
	items int              // exact number of provenance items
	attrs []sdb.PutRequest // a sample of items whose stored attributes must match
}

// oracleReport carries what the oracle measured on its way (the audit is a
// per-layer figure of its own).
type oracleReport struct {
	auditS       float64
	checkpointMs float64 // simulated ms of the final checkpoint
	checkpointOp int64   // billed requests of the final checkpoint
}

// oracle is the one correctness check every workload runs after its timed
// region and outside it, on the manual clock with faults disarmed and the
// daemon pools stopped: nothing lost, nothing duplicated, nothing left
// behind, the log (where attached) auditing clean, and sampled items stored
// with exactly the attributes their bundles carried. Any violation is an
// error, and the run prints no metrics.
func (f *fabric) oracle(want expectation) (oracleReport, error) {
	var rep oracleReport
	if f.env.Clock().Live() {
		return rep, fmt.Errorf("oracle: fabric still on the live clock")
	}
	f.dep.Settle() // let every staleness window pass
	if err := f.p3.Settle(); err != nil {
		return rep, fmt.Errorf("oracle: settle: %w", err)
	}
	f.dep.Settle()

	if n := f.dep.DB.ItemCount(); n != want.items {
		return rep, fmt.Errorf("oracle: %d items stored, %d events generated", n, want.items)
	}
	mis, dup, err := core.AuditFabric(f.dep)
	if err != nil {
		return rep, fmt.Errorf("oracle: fabric audit: %w", err)
	}
	if mis != 0 || dup != 0 {
		return rep, fmt.Errorf("oracle: %d misplaced, %d duplicated items", mis, dup)
	}
	if n := f.dep.WAL.Len(); n != 0 {
		return rep, fmt.Errorf("oracle: %d WAL messages left after settle", n)
	}
	keys, _, err := f.dep.Store.ListAll(core.TmpPrefix)
	if err != nil {
		return rep, fmt.Errorf("oracle: listing tmp/: %w", err)
	}
	if len(keys) != 0 {
		return rep, fmt.Errorf("oracle: %d tmp/ objects leaked", len(keys))
	}
	if n := f.p3.PendingTxns(); n != 0 {
		return rep, fmt.Errorf("oracle: %d transactions still pending", n)
	}

	for _, req := range want.attrs {
		it, err := f.dep.DB.GetAttributes(req.Item)
		if err != nil {
			return rep, fmt.Errorf("oracle: item %s: %w", req.Item, err)
		}
		if attrDigest(it.Attrs) != attrDigest(req.Attrs) {
			return rep, fmt.Errorf("oracle: item %s stored with different attributes than committed", req.Item)
		}
	}

	if f.log != nil {
		u0, t0 := f.env.Meter().Usage().TotalOps, f.env.Now()
		if _, err := f.checkpoint(); err != nil {
			return rep, fmt.Errorf("oracle: %w", err)
		}
		rep.checkpointMs = ms(f.env.Now() - t0)
		rep.checkpointOp = f.env.Meter().Usage().TotalOps - u0
		w0 := time.Now()
		ar, err := translog.Audit(f.dep, f.log, translog.AuditOptions{})
		if err != nil {
			return rep, fmt.Errorf("oracle: log audit: %w", err)
		}
		rep.auditS = time.Since(w0).Seconds()
		if !ar.Clean() {
			return rep, fmt.Errorf("oracle: log %s", ar)
		}
	}
	return rep, nil
}

// attrDigest is an order-independent digest of an attribute set (SimpleDB
// items are sets of pairs; storage order is not part of the contract).
func attrDigest(attrs []sdb.Attr) string {
	pairs := make([]string, len(attrs))
	for i, a := range attrs {
		pairs[i] = fmt.Sprintf("%d:%s=%d:%s", len(a.Name), a.Name, len(a.Value), a.Value)
	}
	sort.Strings(pairs)
	h := sha256.New()
	for _, p := range pairs {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resultDigest folds one query's result stream into a digest; the cached
// and uncached engines must agree on it byte for byte.
func resultDigest(e *query.Engine, spec query.Spec) (string, int, error) {
	h := sha256.New()
	n := 0
	for r, err := range e.Run(spec) {
		if err != nil {
			return "", n, err
		}
		n++
		fmt.Fprintf(h, "%s@%d\n", r.Ref, r.Depth)
		if r.Bundle != nil {
			h.Write(prov.EncodeBundles([]prov.Bundle{*r.Bundle}))
		}
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// idleProbe is the part of the epilogue that gives every workload a reading
// of the client-observed figures its own timed region does not produce:
// commit and durable latency and query service time against the store the
// workload built, each on an otherwise idle fabric, one client, manual clock.
// With one goroutine on the manual clock simulated time is the sum of the
// modelled service times along the path — no queueing, no host scheduling —
// so these are the floor the live workloads' distributions sit on, and they
// move only when a service leg is added, removed or resized.
type idleProbe struct {
	commitMs  sample // simulated ms, Commit call to return
	durableMs sample // simulated ms, Commit call to the item's CommitNotice

	queries        int
	queryServiceMs float64 // mean simulated ms per readback query
	queriesPerS    float64 // readback queries per simulated second of service time
	queryResults   int
}

const (
	probeCommits = 100
	probeQueries = 400
)

// runIdleProbe commits probeCommits small transactions one at a time, each
// driven to durability by single commit-daemon rounds, then reads back from
// roots on a fresh uncached engine: ancestors (with bundles) of each root
// and the versions of its object, alternately.
func (f *fabric) runIdleProbe(seed int64, roots []prov.Ref) (idleProbe, error) {
	var p idleProbe
	if f.env.Clock().Live() {
		return p, fmt.Errorf("probe: fabric still on the live clock")
	}

	// Commit / durable floor.
	names := make([]string, 0, len(f.spec.tenants)+1)
	for _, t := range f.spec.tenants {
		names = append(names, t.id)
	}
	if len(names) == 0 {
		names = []string{"probe"}
	}
	g := &liveGen{r: newRNG(seed, "probe"), tenants: names[:1]}
	var noticed time.Duration
	var want string
	unsub := f.dep.Commits.Subscribe(func(n core.CommitNotice) int64 {
		for _, it := range n.Items {
			if it.Name == want {
				noticed = f.env.Now()
			}
		}
		return 0
	})
	defer unsub()
	for i := 0; i < probeCommits; i++ {
		// One bundle per probe commit: one item, one BatchPut, so the
		// reading does not depend on whether a transaction's items happen
		// to share a shard.
		t := g.next()
		t.bundles, t.obj = t.bundles[:1], core.FileObject{}
		want, noticed = t.bundles[0].Ref.String(), 0
		t0 := f.env.Now()
		if err := f.commit(t); err != nil {
			return p, fmt.Errorf("probe: commit: %w", err)
		}
		ack := f.env.Now() - t0
		p.commitMs = append(p.commitMs, ms(ack))
		// Let the send's staleness window pass before polling, and leave
		// the wait out of the reading: under eventual consistency one commit
		// in twenty would otherwise need a second round of receives, and
		// the p95 would sit on that edge.
		f.dep.Settle()
		poll0 := f.env.Now()
		for round := 0; noticed == 0; round++ {
			if round == 16 {
				return p, fmt.Errorf("probe: transaction not durable after %d daemon rounds", round)
			}
			if _, err := f.p3.CommitOnce(); err != nil {
				return p, fmt.Errorf("probe: daemon round: %w", err)
			}
		}
		p.durableMs = append(p.durableMs, ms(ack+noticed-poll0))
	}
	f.dep.Settle()
	if err := f.p3.Settle(); err != nil {
		return p, fmt.Errorf("probe: settle: %w", err)
	}
	f.dep.Settle()

	if len(roots) == 0 {
		return p, fmt.Errorf("probe: no readback roots")
	}
	// A fixed number of queries, read in simulated time: with one client on
	// the manual clock the clock advances by each request's service time and
	// nothing else, so neither figure depends on how fast the host is today.
	e := query.New(f.dep, core.BackendSDB)
	simT0 := f.env.Now()
	qi := 0
	for ; qi < probeQueries; qi++ {
		root := roots[(qi/2)%len(roots)]
		spec := query.Spec{Roots: query.Roots{Refs: []prov.Ref{root}}, Direction: query.Ancestors, Project: query.ProjectBundles}
		if qi%2 == 1 {
			spec = query.Spec{Roots: query.Roots{UUIDs: []uuid.UUID{root.UUID}}, Direction: query.Versions, Project: query.ProjectBundles}
		}
		res, err := e.Collect(spec)
		if err != nil {
			return p, fmt.Errorf("probe: readback of %s: %w", root, err)
		}
		if len(res) == 0 || (spec.Direction == query.Ancestors && res[0].Ref != root) {
			return p, fmt.Errorf("probe: readback of %s returned %d results, root missing", root, len(res))
		}
		p.queryResults += len(res)
	}
	p.queries = qi
	p.queryServiceMs = ms(f.env.Now()-simT0) / float64(qi)
	p.queriesPerS = 1000 / p.queryServiceMs
	return p, nil
}
