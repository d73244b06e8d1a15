package core

import (
	"errors"
	"fmt"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/trace"
)

// PropertyReport is one row of the paper's Table 1, extended with the
// data-independent persistence property of §3 (which all three protocols
// provide by construction and Table 1 therefore omits).
type PropertyReport struct {
	Protocol       string
	DataCoupling   bool // eventual provenance data-coupling
	CausalOrdering bool // eventual multi-object causal ordering
	EfficientQuery bool // indexed provenance lookup
	Persistence    bool // provenance survives data deletion
}

// ProtocolFactory builds a protocol instance over a deployment; the probes
// and benchmarks use it to instantiate each row of the evaluation.
type ProtocolFactory struct {
	Name string
	New  func(*Deployment, Options) Protocol
}

// Factories returns the four configurations of the evaluation in the
// paper's order: the baseline and the three protocols.
func Factories() []ProtocolFactory {
	return []ProtocolFactory{
		{Name: "S3fs", New: func(d *Deployment, o Options) Protocol { return NewS3fs(d, o) }},
		{Name: "P1", New: func(d *Deployment, o Options) Protocol { return NewP1(d, o) }},
		{Name: "P2", New: func(d *Deployment, o Options) Protocol { return NewP2(d, o) }},
		{Name: "P3", New: func(d *Deployment, o Options) Protocol { return NewP3(d, o) }},
	}
}

// ProbeProperties empirically verifies Table 1 for one protocol by running
// fault-injection scenarios against a fresh deployment:
//
//   - coupling: a client crash between the provenance write and the data
//     write (P1/P2) or mid-log (P3) must not leave provenance describing a
//     version whose data never became persistent;
//   - causal ordering: after committing a two-stage pipeline's final output
//     (in ordered mode), a walk of the recorded graph finds no dangling
//     ancestors;
//   - efficient query: a find-by-attribute touches O(1) rather than O(n)
//     service requests;
//   - persistence: deleting the data leaves the provenance readable.
func ProbeProperties(factory ProtocolFactory, seed int64) (PropertyReport, error) {
	rep := PropertyReport{Protocol: factory.Name}

	coupled, err := probeCoupling(factory, seed)
	if err != nil {
		return rep, fmt.Errorf("coupling probe: %w", err)
	}
	rep.DataCoupling = coupled

	ordered, persisted, err := probeOrderingAndPersistence(factory, seed+1)
	if err != nil {
		return rep, fmt.Errorf("ordering probe: %w", err)
	}
	rep.CausalOrdering = ordered
	rep.Persistence = persisted

	efficient, err := probeQueryEfficiency(factory, seed+2)
	if err != nil {
		return rep, fmt.Errorf("query probe: %w", err)
	}
	rep.EfficientQuery = efficient
	return rep, nil
}

// pipelineBundles builds a two-stage pipeline (raw -> stage1 -> mid ->
// stage2 -> out) and returns the collector plus the two interesting files.
func pipelineBundles(seed int64) (*pass.Collector, []prov.Bundle, FileObject, []prov.Bundle, FileObject) {
	col := pass.New(sim.NewRand(seed), nil)
	b := trace.NewBuilder()
	p1 := b.Spawn(0, "/bin/stage1", "stage1")
	b.Read(p1, "raw", 4096).Write(p1, "mnt/mid", 2048).Close(p1, "mnt/mid")
	p2 := b.Spawn(0, "/bin/stage2", "stage2")
	b.Read(p2, "mnt/mid", 2048).Write(p2, "mnt/out", 1024).Close(p2, "mnt/out")
	for _, ev := range b.Trace().Events {
		col.Apply(ev)
	}
	midRef, _ := col.FileRef("mnt/mid")
	outRef, _ := col.FileRef("mnt/out")
	midBundles := col.TakePending("mnt/mid")
	outBundles := col.TakePending("mnt/out")
	mid := FileObject{Path: "mnt/mid", Size: 2048, Ref: midRef}
	out := FileObject{Path: "mnt/out", Size: 1024, Ref: outRef}
	return col, midBundles, mid, outBundles, out
}

// probeCoupling commits one version cleanly, then a second version with a
// mid-commit client crash, settles everything, and checks coupling.
func probeCoupling(factory ProtocolFactory, seed int64) (bool, error) {
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	dep := NewDeployment(sim.NewEnv(cfg))
	proto := factory.New(dep, Options{Ordered: true})
	backend := BackendOf(proto)
	if backend == BackendNone {
		return false, nil // the baseline has nothing to couple
	}

	col := pass.New(sim.NewRand(seed), nil)
	tb := trace.NewBuilder()
	pid := tb.Spawn(0, "/bin/gen", "gen")
	tb.Write(pid, "mnt/f", 4096).Close(pid, "mnt/f")
	for _, ev := range tb.Trace().Events {
		col.Apply(ev)
	}
	ref, _ := col.FileRef("mnt/f")
	bundles := col.TakePending("mnt/f")
	if err := proto.Commit(FileObject{Path: "mnt/f", Size: 4096, Ref: ref}, bundles); err != nil {
		return false, err
	}
	if err := proto.Settle(); err != nil {
		return false, err
	}
	dep.Settle()

	// Second version, interrupted mid-commit.
	col.Apply(trace.Event{Kind: trace.Read, PID: pid, Path: "mnt/f"})
	col.Apply(trace.Event{Kind: trace.Write, PID: pid, Path: "mnt/f", Bytes: 4096})
	ref2, _ := col.FileRef("mnt/f")
	bundles2 := col.PendingFor("mnt/f")
	faults := dep.Env.InstallFaults(nil) // no plan: crash points only, nothing drawn
	switch p := proto.(type) {
	case *P1:
		faults.CrashAt(CrashP1BeforeData, 0)
	case *P2:
		faults.CrashAt(CrashP2BeforeData, 0)
	case *P3:
		// Force a multi-packet transaction, then die after one packet.
		p.SetChunkSize(64)
		faults.CrashAt(CrashClientAfterPackets, 1)
	}
	err := proto.Commit(FileObject{Path: "mnt/f", Size: 8192, Ref: ref2}, bundles2)
	if err != nil && !errors.Is(err, sim.ErrCrashed) {
		return false, err
	}
	if left := faults.ArmedCrashes(); len(left) != 0 {
		return false, fmt.Errorf("crash points never reached: %v", left)
	}
	if err := proto.Settle(); err != nil {
		return false, err
	}
	dep.Settle()

	rep, err := CheckCoupling(dep, backend, "mnt/f")
	if err != nil {
		return false, err
	}
	return rep.Coupled, nil
}

// probeOrderingAndPersistence commits a pipeline in ordered mode, walks the
// recorded graph for dangling ancestors, then deletes the output and checks
// its provenance survives.
func probeOrderingAndPersistence(factory ProtocolFactory, seed int64) (ordered, persisted bool, err error) {
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	dep := NewDeployment(sim.NewEnv(cfg))
	proto := factory.New(dep, Options{Ordered: true})
	backend := BackendOf(proto)
	if backend == BackendNone {
		return false, false, nil
	}
	_, midBundles, mid, outBundles, out := pipelineBundles(seed)
	if err := proto.Commit(mid, midBundles); err != nil {
		return false, false, err
	}
	if err := proto.Commit(out, outBundles); err != nil {
		return false, false, err
	}
	if err := proto.Settle(); err != nil {
		return false, false, err
	}
	dep.Settle()
	walk, err := CheckCausalOrdering(dep, backend, out.Ref)
	if err != nil {
		return false, false, err
	}
	persisted, err = CheckPersistence(dep, backend, proto, out.Path, out.Ref)
	if err != nil {
		return walk.Ordered(), false, err
	}
	return walk.Ordered(), persisted, nil
}

// probeQueryEfficiency stores n objects and measures how many service
// requests a find-by-attribute needs: an indexed backend answers in O(1)
// requests, a scan-only backend in O(n).
func probeQueryEfficiency(factory ProtocolFactory, seed int64) (bool, error) {
	const n = 20
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	cfg.Consistency = sim.Strict // isolate query behaviour from staleness
	dep := NewDeployment(sim.NewEnv(cfg))
	proto := factory.New(dep, Options{})
	backend := BackendOf(proto)
	if backend == BackendNone {
		return false, nil
	}
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
		if err := proto.Commit(FileObject{Path: path, Size: 512, Ref: ref}, bundles); err != nil {
			return false, err
		}
	}
	if err := proto.Settle(); err != nil {
		return false, err
	}

	before := dep.Env.Meter().Usage().TotalOps
	found, err := FindByAttr(dep, backend, prov.AttrName, "mnt/f07")
	if err != nil {
		return false, err
	}
	if len(found) == 0 {
		return false, fmt.Errorf("find-by-attr found nothing")
	}
	used := dep.Env.Meter().Usage().TotalOps - before
	return used <= 3, nil
}

// FindByAttr locates node refs whose provenance carries attr = value. On
// the database backend this is one indexed SELECT; on the store backend it
// must list and fetch every provenance object — the asymmetry behind
// Table 1's "efficient query" row and Table 5's Q3/Q4 gap.
func FindByAttr(dep *Deployment, backend Backend, attr, value string) ([]prov.Ref, error) {
	switch backend {
	case BackendSDB:
		q := sdb.Query{Domain: DomainName, ItemOnly: true, Where: sdb.Eq(attr, value)}
		items, _, _, err := dep.DB.SelectAllQuery(q)
		if err != nil {
			return nil, err
		}
		refs := make([]prov.Ref, 0, len(items))
		for _, it := range items {
			r, err := prov.ParseRef(it.Name)
			if err != nil {
				return nil, err
			}
			refs = append(refs, r)
		}
		return refs, nil
	case BackendS3:
		keys, _, err := dep.Store.ListAll(ProvPrefix)
		if err != nil {
			return nil, err
		}
		var refs []prov.Ref
		for _, k := range keys {
			o, err := dep.Store.Get(k)
			if err != nil {
				continue
			}
			bundles, err := prov.DecodeBundles(o.Data)
			if err != nil {
				return nil, err
			}
			for _, b := range bundles {
				for _, r := range b.Records {
					if !r.IsXref() && r.Attr == attr && r.Value == value {
						refs = append(refs, b.Ref)
						break
					}
				}
			}
		}
		return refs, nil
	}
	return nil, fmt.Errorf("core: backend records no provenance")
}
