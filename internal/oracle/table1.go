package oracle

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/trace"
)

// PropertyReport is one row of the paper's Table 1, extended with the
// data-independent persistence property of §3 (which all three protocols
// provide by construction and Table 1 therefore omits). Each "no" cell is
// the violation behind it, named coupling, causal-order, query or
// persistence.
type PropertyReport struct {
	Protocol string
	Why      []Violation
}

// Holds reports whether property's cell is "yes".
func (r PropertyReport) Holds(property string) bool {
	return !slices.ContainsFunc(r.Why, func(v Violation) bool { return v.Property == property })
}

// Table1 derives the property matrix for the evaluation's four
// configurations, in the paper's order.
func Table1(seed int64) ([]PropertyReport, error) {
	var rows []PropertyReport
	for _, f := range core.Factories() {
		rep, err := Properties(f, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.Name, err)
		}
		rows = append(rows, rep)
	}
	return rows, nil
}

// Properties derives one protocol's row. In ordered mode on a fresh
// deployment it commits a two-stage pipeline (raw -> stage1 -> mid ->
// stage2 -> out) and checks it, then commits a second version of out that
// dies at the protocol's client crash point and checks again: a coupling or
// causal-order cell is "yes" only when neither check finds a violation of
// that property. Then out's data is deleted and its provenance must stay
// (persistence), and a find-by-attribute must touch O(1) rather than O(n)
// service requests (efficient query).
func Properties(factory core.ProtocolFactory, seed int64) (PropertyReport, error) {
	rep := PropertyReport{Protocol: factory.Name}
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	dep := core.NewDeployment(sim.NewEnv(cfg))
	// P3's 64-byte chunks make its client crash point leave a transaction half sent.
	proto := factory.New(dep, core.Options{Ordered: true, ChunkSize: 64})
	want := Expect{Backend: core.BackendOf(proto)}
	if want.Backend == core.BackendNone {
		for _, p := range []string{"coupling", "causal-order", "query", "persistence"} {
			rep.Why = append(rep.Why, Violation{p, factory.Name + " records no provenance"})
		}
		return rep, nil
	}
	want.P3, _ = proto.(*core.P3)
	col := pass.New(sim.NewRand(seed), nil)
	commit := func(path string, size int64, bundles []prov.Bundle) (core.FileObject, error) {
		ref, _ := col.FileRef(path)
		obj := core.FileObject{Path: path, Size: size, Ref: ref}
		if err := proto.Commit(obj, bundles); err != nil {
			return obj, err
		}
		want.Objects = append(want.Objects, obj)
		if want.Backend == core.BackendSDB {
			want.Items += len(bundles)
		}
		return obj, nil
	}
	// check settles the protocol and keeps the first violation of each
	// eventual property, named by the run it is found after.
	check := func(run string) error {
		if err := proto.Settle(); err != nil {
			return err
		}
		found, err := Check(dep, want)
		for _, v := range found.Violations {
			if (v.Property == "coupling" || v.Property == "causal-order") && rep.Holds(v.Property) {
				rep.Why = append(rep.Why, Violation{v.Property, run + ": " + v.Detail})
			}
		}
		return err
	}

	b := trace.NewBuilder()
	p1 := b.Spawn(0, "/bin/stage1", "stage1")
	b.Read(p1, "raw", 4096).Write(p1, "mnt/mid", 2048).Close(p1, "mnt/mid")
	p2 := b.Spawn(0, "/bin/stage2", "stage2")
	b.Read(p2, "mnt/mid", 2048).Write(p2, "mnt/out", 1024).Close(p2, "mnt/out")
	for _, ev := range b.Trace().Events {
		col.Apply(ev)
	}
	if _, err := commit("mnt/mid", 2048, col.TakePending("mnt/mid")); err != nil {
		return rep, err
	}
	out, err := commit("mnt/out", 1024, col.TakePending("mnt/out"))
	if err != nil {
		return rep, err
	}
	if err := check("pipeline"); err != nil {
		return rep, err
	}

	// The client crash point: P1 and P2 die between the provenance and the
	// data, P3 with one packet of a multi-packet transaction sent. A P3
	// client's leftovers then go the way they go in production: past the
	// temp objects' age, the cleaner removes them.
	col.Apply(trace.Event{Kind: trace.Read, PID: p2, Path: "mnt/out"}) // stage2 rewrites its output
	col.Apply(trace.Event{Kind: trace.Write, PID: p2, Path: "mnt/out", Bytes: 1024})
	point, n := core.CrashP1BeforeData, 0
	switch proto.(type) {
	case *core.P2:
		point = core.CrashP2BeforeData
	case *core.P3:
		point, n = core.CrashClientAfterPackets, 1
	}
	dep.Env.InstallFaults(nil).CrashAt(point, n) // no plan: the crash point only
	if _, err := commit("mnt/out", 2048, col.PendingFor("mnt/out")); !errors.Is(err, sim.ErrCrashed) {
		return rep, fmt.Errorf("commit at %s: %v, want the crash", point, err)
	}
	if p := want.P3; p != nil {
		dep.Env.Clock().Advance(core.CleanerMaxAge + time.Hour)
		if _, err := p.RunCleaner(); err != nil {
			return rep, err
		}
	}
	if err := check("crash at " + string(point)); err != nil {
		return rep, err
	}

	ops, err := probeQueryEfficiency(factory, seed+2)
	if err != nil {
		return rep, fmt.Errorf("query probe: %w", err)
	}
	if ops > 3 {
		rep.Why = append(rep.Why, Violation{"query", fmt.Sprintf("a find-by-attribute took %d requests", ops)})
	}
	persisted, err := core.CheckPersistence(dep, want.Backend, proto, out.Path, out.Ref)
	if !persisted {
		rep.Why = append(rep.Why, Violation{"persistence", "the provenance of " + out.Path + " went with its data"})
	}
	return rep, err
}

// probeQueryEfficiency stores n objects and returns how many service
// requests a find-by-attribute needs: an indexed backend answers in O(1)
// requests, a scan-only backend in O(n).
func probeQueryEfficiency(factory core.ProtocolFactory, seed int64) (int64, error) {
	const n = 20
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	cfg.Consistency = sim.Strict // isolate query behaviour from staleness
	dep := core.NewDeployment(sim.NewEnv(cfg))
	proto := factory.New(dep, core.Options{})
	col := pass.New(sim.NewRand(seed), nil)
	tb := trace.NewBuilder()
	for i := 0; i < n; i++ {
		pid := tb.Spawn(0, "/bin/gen", "gen", fmt.Sprint(i))
		path := fmt.Sprintf("mnt/f%02d", i)
		tb.Write(pid, path, 512).Close(pid, path)
	}
	for _, ev := range tb.Trace().Events {
		col.Apply(ev)
	}
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("mnt/f%02d", i)
		ref, _ := col.FileRef(path)
		bundles := col.TakePending(path)
		if err := proto.Commit(core.FileObject{Path: path, Size: 512, Ref: ref}, bundles); err != nil {
			return 0, err
		}
	}
	if err := proto.Settle(); err != nil {
		return 0, err
	}

	before := dep.Env.Meter().Usage().TotalOps
	found, err := core.FindByAttr(dep, core.BackendOf(proto), prov.AttrName, "mnt/f07")
	if err != nil {
		return 0, err
	}
	if len(found) == 0 {
		return 0, fmt.Errorf("find-by-attr found nothing")
	}
	return dep.Env.Meter().Usage().TotalOps - before, nil
}
