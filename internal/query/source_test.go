package query

import (
	"fmt"
	"strings"
	"testing"

	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// twin is one provenance history committed twice: through P1 into the store
// and through P2 into a K=4 database, with identical uuids, so the two
// engines' result streams compare ref for ref.
type twin struct {
	s3, db *Engine
	files  []uuid.UUID // object i lives at twinPath(i)
	nodes  []prov.Ref  // every committed node, in commit order
}

func twinPath(i int) string { return fmt.Sprintf("mnt/c%03d", i) }

// newTwin replays a seeded run history on both backends, the database at
// K=4 (see newTwinK).
func newTwin(t *testing.T, seed int64, runs int, inputOnly bool) *twin {
	t.Helper()
	return newTwinK(t, seed, runs, inputOnly, 4)
}

// newTwinK replays a seeded run history on both backends, the database
// sharded k ways. Every run is one version bump of the process "prog" that
// reads up to two existing files and writes a new version of one file;
// file 0 is written by every other run, so it passes ten versions and
// uuid_10 sorts before uuid_2 in canonical order.
// With inputOnly the only cross-reference attribute recorded is input — the
// edge the database schema indexes — otherwise nodes also carry prev,
// forkparent and execfile edges, which only the store's child lookup follows.
func newTwinK(t *testing.T, seed int64, runs int, inputOnly bool, k int) *twin {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Consistency = sim.Strict
	depS3 := core.NewDeployment(sim.NewEnv(cfg))
	depDB := core.NewShardedDeployment(sim.NewEnv(cfg), core.Topology{WALShards: k, DBShards: k})
	p1, p2 := core.NewP1(depS3, core.Options{}), core.NewP2(depDB, core.Options{})

	rnd := sim.NewRand(seed)
	tw := &twin{s3: New(depS3, core.BackendS3), db: New(depDB, core.BackendSDB)}
	procU := uuid.New(rnd)
	for i := 0; i < 5; i++ {
		tw.files = append(tw.files, uuid.New(rnd))
	}
	latest := make(map[uuid.UUID]int) // newest committed version per object
	bump := func(u uuid.UUID) (ref prov.Ref, prev []prov.Record) {
		latest[u]++
		ref = prov.Ref{UUID: u, Version: latest[u]}
		if !inputOnly && ref.Version > 1 {
			prev = []prov.Record{{Attr: prov.AttrPrevVer, Xref: prov.Ref{UUID: u, Version: ref.Version - 1}}}
		}
		return ref, prev
	}
	for run := 0; run < runs; run++ {
		out := 0
		if run%2 == 1 {
			out = 1 + rnd.Intn(len(tw.files)-1)
		}
		proc, procRecs := bump(procU)
		procRecs = append(procRecs,
			prov.Record{Attr: prov.AttrType, Value: "proc"},
			prov.Record{Attr: prov.AttrName, Value: "prog"},
			prov.Record{Attr: prov.AttrPID, Value: fmt.Sprint(100 + run%3)})
		for i := 0; i < 2; i++ {
			if in := tw.files[rnd.Intn(len(tw.files))]; latest[in] > 0 {
				procRecs = append(procRecs, prov.Record{Attr: prov.AttrInput, Xref: prov.Ref{UUID: in, Version: latest[in]}})
				if !inputOnly && i == 0 {
					procRecs = append(procRecs, prov.Record{Attr: prov.AttrExecFile, Xref: prov.Ref{UUID: in, Version: 1}})
				}
			}
		}
		if !inputOnly && proc.Version > 2 {
			procRecs = append(procRecs, prov.Record{Attr: prov.AttrForkParent, Xref: prov.Ref{UUID: procU, Version: proc.Version - 2}})
		}
		file, fileRecs := bump(tw.files[out])
		fileRecs = append(fileRecs,
			prov.Record{Attr: prov.AttrType, Value: "file"},
			prov.Record{Attr: prov.AttrName, Value: twinPath(out)},
			prov.Record{Attr: prov.AttrInput, Xref: proc})
		bundles := []prov.Bundle{
			{Ref: proc, Type: prov.Process, Name: "prog", Records: procRecs},
			{Ref: file, Type: prov.File, Name: twinPath(out), Records: fileRecs},
		}
		obj := core.FileObject{Path: twinPath(out), Size: 1024, Ref: file}
		for _, p := range []core.Protocol{p1, p2} {
			if err := p.Commit(obj, bundles); err != nil {
				t.Fatalf("run %d on %s: %v", run, p.Name(), err)
			}
		}
		tw.nodes = append(tw.nodes, proc, file)
	}
	if latest[tw.files[0]] < 10 {
		t.Fatalf("file 0 has %d versions; the canonical-order corner needs 10", latest[tw.files[0]])
	}
	return tw
}

// stream renders a spec's results as one "ref@depth" line each, "+b" marking
// a carried bundle (bundle contents differ by backend: an item's attributes
// versus the records the collector sent).
func stream(t *testing.T, e *Engine, spec Spec) []string {
	t.Helper()
	var out []string
	for r, err := range e.Run(spec) {
		if err != nil {
			t.Fatalf("%v %+v: %v", e.backend, spec, err)
		}
		out = append(out, streamLine(r))
	}
	return out
}

// streamLine is one result as stream renders it.
func streamLine(r Result) string {
	line := fmt.Sprintf("%s@%d", r.Ref, r.Depth)
	if r.Bundle != nil {
		line += "+b"
	}
	return line
}

// refSet is the set of refs in a stream, depths dropped.
func refSet(lines []string) map[string]bool {
	set := make(map[string]bool, len(lines))
	for _, l := range lines {
		set[l[:strings.IndexByte(l, '@')]] = true
	}
	return set
}

// randomRoots draws one root selector of each kind in turn, plus a mixed
// one, over the twin's objects; about one root in five was never recorded.
func randomRoots(rnd *sim.Rand, tw *twin, i int) Roots {
	node := tw.nodes[rnd.Intn(len(tw.nodes))]
	if rnd.Intn(5) == 0 {
		node = prov.Ref{UUID: uuid.New(rnd), Version: 1}
	}
	file := rnd.Intn(len(tw.files))
	switch i % 5 {
	case 0:
		return Roots{Paths: []string{twinPath(file)}}
	case 1:
		return Roots{UUIDs: []uuid.UUID{node.UUID}}
	case 2:
		return Roots{Refs: []prov.Ref{node}}
	case 3:
		return Roots{Attrs: []AttrMatch{{Attr: prov.AttrName, Value: twinPath(file)}}}
	}
	return Roots{
		Refs:  []prov.Ref{node},
		UUIDs: []uuid.UUID{tw.files[0]},
		Attrs: []AttrMatch{{Attr: prov.AttrName, Value: "prog"}, {Attr: prov.AttrPID, Value: "101"}},
	}
}

// TestCrossBackendStreamEquivalence is the one-executor property: over a
// seeded stream of root selectors, projections, depth bounds and random
// filter trees, the store and the database stream the same (ref, depth)
// sequence for Self, Versions and Ancestors, and the same ref set for All
// (scan order is the backend's). Descendants differ only by which edges make
// a child: on a history whose sole cross-reference is input the streams are
// identical, and on one with prev/forkparent/execfile edges too the database
// closure is a subset of the store's.
func TestCrossBackendStreamEquivalence(t *testing.T) {
	for _, inputOnly := range []bool{true, false} {
		tw := newTwin(t, 57, 24, inputOnly)
		rnd := sim.NewRand(58)
		for i := 0; i < 200; i++ {
			spec := Spec{
				Roots:     randomRoots(rnd, tw, i),
				Direction: []Direction{Self, Versions, Ancestors, Descendants, All}[(i/5)%5],
				MaxDepth:  rnd.Intn(4),
				Project:   Projection(rnd.Intn(2)),
			}
			if rnd.Intn(3) > 0 {
				spec.Filter = randomFilter(rnd, 3)
			}
			name := fmt.Sprintf("inputOnly=%v case %d (%s, filter %s)", inputOnly, i, spec.Direction, spec.Filter)
			if spec.Direction == Versions {
				// No recorded version at all is ErrNoProvenance on both.
				_, errS3 := tw.s3.Collect(spec)
				_, errDB := tw.db.Collect(spec)
				if (errS3 == nil) != (errDB == nil) {
					t.Fatalf("%s: store err %v, database err %v", name, errS3, errDB)
				}
				if errS3 != nil {
					continue
				}
			}
			s3, db := stream(t, tw.s3, spec), stream(t, tw.db, spec)
			switch {
			case spec.Direction == All:
				if fmt.Sprint(refSet(s3)) != fmt.Sprint(refSet(db)) {
					t.Errorf("%s: ref sets differ\n store %v\n    db %v", name, s3, db)
				}
			case spec.Direction == Descendants && !inputOnly:
				super := refSet(s3)
				for r := range refSet(db) {
					if !super[r] {
						t.Errorf("%s: database descendant %s missing from the store closure", name, r)
					}
				}
			default:
				if fmt.Sprint(s3) != fmt.Sprint(db) {
					t.Errorf("%s: streams differ\n store %v\n    db %v", name, s3, db)
				}
			}
		}
	}
}

// TestCrossBackendCorners pins the corners where a backend's storage order
// or scan could leak into the stream; both follow the database's rule.
func TestCrossBackendCorners(t *testing.T) {
	tw := newTwin(t, 57, 24, false)
	hot := tw.files[0]
	ghost := prov.Ref{UUID: uuid.New(sim.NewRand(99)), Version: 1}
	for _, e := range []*Engine{tw.s3, tw.db} {
		// A refs-only Self emits an explicit ref whether or not it was ever
		// recorded — also when a uuid root beside it forces the store's scan.
		got := stream(t, e, Spec{Roots: Roots{Refs: []prov.Ref{ghost}, UUIDs: []uuid.UUID{hot}}, Direction: Self})
		if len(got) < 11 || got[len(got)-1] != ghost.String()+"@0" {
			t.Errorf("%v: refs-only Self dropped the unrecorded explicit ref: %v", e.backend, got)
		}
		// Versions, uuid roots and attribute roots stream in canonical
		// item-name order, in which version 10 sorts before version 2.
		for _, spec := range []Spec{
			{Roots: Roots{UUIDs: []uuid.UUID{hot}}, Direction: Versions},
			{Roots: Roots{UUIDs: []uuid.UUID{hot}}, Direction: Self},
			{Roots: Roots{Attrs: []AttrMatch{{Attr: prov.AttrName, Value: twinPath(0)}}}, Direction: Ancestors, MaxDepth: 1},
		} {
			got := stream(t, e, spec)
			v1 := fmt.Sprintf("%s@0", prov.Ref{UUID: hot, Version: 1})
			v10 := fmt.Sprintf("%s@0", prov.Ref{UUID: hot, Version: 10})
			if len(got) < 10 || got[0] != v1 || got[1] != v10 {
				t.Errorf("%v %s: roots not in canonical order: %v", e.backend, spec.Direction, got)
			}
		}
	}
}

// TestStoreScanRejectsMalformedObject feeds the store plan a provenance
// object that decodes but cannot be a node (version 0): the scanned-graph
// builder must fail the query, as CollectGraph does for the same bundle,
// instead of silently walking a graph with the node missing.
func TestStoreScanRejectsMalformedObject(t *testing.T) {
	tw := newTwin(t, 57, 24, true)
	bad := prov.Bundle{Ref: prov.Ref{UUID: uuid.New(sim.NewRand(7))}, Type: prov.File, Name: "mnt/bad"}
	if err := tw.s3.dep.Store.Put(core.ProvKey(bad.Ref.UUID), prov.EncodeBundles([]prov.Bundle{bad}), nil); err != nil {
		t.Fatal(err)
	}
	_, err := tw.s3.Collect(Spec{Roots: Roots{Refs: tw.nodes[:1]}, Direction: Descendants})
	if err == nil || !strings.Contains(err.Error(), "version < 1") {
		t.Fatalf("scan over a malformed provenance object returned %v, want the graph builder's error", err)
	}
}

// TestDescribeGolden pins Engine.Describe's strings — provctl's plan: line
// and the Plan field of bench.CoherentReads' pushdown cases — over every
// branch of the filter split, each cache state and both backends. Describe
// reads the plan the executor runs, so a string here changes only with the
// plan.
func TestDescribeGolden(t *testing.T) {
	tw := newTwin(t, 57, 24, true)
	file, proc := TypeIs(prov.File), NameIs("prog")
	byPath := Roots{Paths: []string{twinPath(0)}}
	byRef := Roots{Refs: tw.nodes[:1]}
	byUUID := Roots{UUIDs: tw.files[:1]}
	byAttr := procSpecRoots("prog")

	const (
		dbScatter   = "K-way scatter (K=4)"
		dbAttrRoots = "sdb: roots via indexed attribute SELECT, " + dbScatter + "; "
		dbDesc      = "IN-batched BFS over input edges, each batch a " + dbScatter + " — children live on any shard; a partial batch, the roots' included, padded with later versions of version-chain refs within the depth left; "
		dbAnc       = "walk over xref edges, each level a batched itemName() fetch routed to the refs' home shards, ≤ min(K, refs) requests per 20-ref batch, a partial batch padded with earlier versions of its refs within the depth left; "
		dbVers      = "uuid-prefix SELECT per root, routed to the uuid's home shard (1 request each); "
		s3Scan      = "s3: whole-graph scan (LIST + parallel GETs), local evaluation"
	)
	check := func(e *Engine, spec Spec, want string) {
		t.Helper()
		if got := e.Describe(spec); got != want {
			t.Errorf("Describe(%s %+v)\n got %q\nwant %q", spec.Direction, spec.Roots, got, want)
		}
	}

	db := tw.db
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		// Access paths, no filter.
		{Spec{Direction: All}, "sdb: SELECT drain over all shards, " + dbScatter + ", uncached"},
		{Spec{Roots: byAttr, Direction: Self}, dbAttrRoots + "no traversal; cache off"},
		{Spec{Roots: byPath, Direction: Versions}, "sdb: roots via HEAD + metadata link; " + dbVers + "cache off"},
		{Spec{Roots: byUUID, Direction: Ancestors}, "sdb: roots via direct refs; " + dbAnc + "cache off"},
		{Spec{Roots: byRef, Direction: Descendants}, "sdb: roots via direct refs; " + dbDesc + "cache off"},
		// Every way the filter split can come out.
		{Spec{Direction: All, Filter: file}, "sdb: SELECT drain over all shards, " + dbScatter + ", uncached; filter [type = 'file'] pushed into SELECTs"},
		{Spec{Direction: All, Filter: And(file, Not(proc))}, "sdb: SELECT drain over all shards, " + dbScatter + ", uncached; filter split: [type = 'file'] pushed into SELECTs, residue not name:prog client-side"},
		{Spec{Direction: All, Filter: Or(file, proc)}, "sdb: SELECT drain over all shards, " + dbScatter + ", uncached; filter client-side (no lowerable conjunctive terms)"},
		{Spec{Roots: byAttr, Direction: Self, Filter: proc}, dbAttrRoots + "no traversal; cache off; filter [name = 'prog'] pushed into SELECTs"},
		{Spec{Roots: byPath, Direction: Self, Filter: file}, "sdb: roots via HEAD + metadata link; no traversal; cache off; filter client-side (non-attribute roots)"},
		{Spec{Roots: byUUID, Direction: Versions, Filter: file}, "sdb: roots via direct refs; " + dbVers + "cache off; filter client-side (plan fetches bundles anyway)"},
		{Spec{Roots: byRef, Direction: Ancestors, Filter: file}, "sdb: roots via direct refs; " + dbAnc + "cache off; filter client-side (plan fetches bundles anyway)"},
		{Q3Spec("prog", file, 0), dbAttrRoots + dbDesc + "cache off; filter [type = 'file'] pushed into SELECTs"},
		{Q4Spec("prog", file, 0), dbAttrRoots + dbDesc + "cache off; filter client-side (unbounded walk: every level feeds the frontier)"},
	} {
		check(db, tc.spec, tc.want)
	}
	// A negative depth is unbounded too: no terminal level, nothing pushed.
	neg := Q4Spec("prog", file, 0)
	neg.MaxDepth = -1
	check(db, neg, dbAttrRoots+dbDesc+"cache off; filter client-side (unbounded walk: every level feeds the frontier)")

	db.SetPushdown(false)
	check(db, Q3Spec("prog", file, 0), dbAttrRoots+dbDesc+"cache off; filter client-side (pushdown off)")
	db.SetPushdown(true)
	db.SetCache(NewCache(0))
	check(db, Q3Spec("prog", nil, 0), dbAttrRoots+dbDesc+"cache on")
	check(db, Q3Spec("prog", file, 0), dbAttrRoots+dbDesc+"cache on; filter client-side (cached observations answer before SELECTs)")
	check(db, Spec{Direction: All, Filter: file}, "sdb: SELECT drain over all shards, "+dbScatter+", uncached; filter client-side (cached observations answer before SELECTs)")
	if err := db.Subscribe(); err != nil {
		t.Fatal(err)
	}
	check(db, Q3Spec("prog", nil, 0), dbAttrRoots+dbDesc+"cache on, subscribed")
	db.SetCache(nil)
	check(db, Q3Spec("prog", nil, 0), dbAttrRoots+dbDesc+"cache off")

	// The store names its objects or scans; it describes no filter.
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{Roots: byPath, Direction: Versions, Filter: file}, "s3: targeted provenance-object GETs (one per root uuid)"},
		{Spec{Roots: byAttr, Direction: Versions}, s3Scan},
		{Spec{Roots: Roots{Paths: byPath.Paths, Refs: byRef.Refs}, Direction: Self}, "s3: targeted HEAD/GET root resolution, no scan"},
		{Spec{Roots: byRef, Direction: Self, Project: ProjectBundles}, s3Scan},
		{Spec{Roots: byRef, Direction: Self, Filter: file}, s3Scan},
		{Spec{Roots: byUUID, Direction: Self}, s3Scan},
		{Spec{Roots: byAttr, Direction: Self}, s3Scan},
		{Spec{Roots: byRef, Direction: Ancestors}, s3Scan},
		{Spec{Roots: byRef, Direction: Descendants}, s3Scan},
		{Spec{Direction: All}, s3Scan},
	} {
		check(tw.s3, tc.spec, tc.want)
	}
}

// TestInBatchAllocationsFlat pins what one K=4 itemName() IN batch of 20
// refs allocates on its way from rendered names to the bundle map: the same
// count whether 2 of the refs are recorded or all 20. Both batches route to
// the same two shards, so each asks the same requests, and both drain into
// a pooled buffer, so neither allocates for what the SELECTs return.
func TestInBatchAllocationsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	dep := versionRunDeployment(1, sim.Strict)
	rnd := sim.NewRand(7)
	var refs [2][]prov.Ref // per batch: 10 refs homed on shard 0, then 10 on shard 1
	var recorded []prov.Bundle
	for b := range refs {
		for shard := 0; shard < 2; shard++ {
			for n := 0; n < 10; {
				r := prov.Ref{UUID: uuid.New(rnd), Version: 1}
				if dep.DB.ShardForItem(r.String()) != shard {
					continue
				}
				refs[b] = append(refs[b], r)
				if b == 1 || n == 0 { // every ref of the second batch, one per shard of the first
					recorded = append(recorded, fileNode(r, "mnt/out", prov.Ref{UUID: r.UUID, Version: 9}))
				}
				n++
			}
		}
	}
	putBundles(t, dep, recorded)
	src := &dbSource{e: New(dep, core.BackendSDB), spec: &Spec{Workers: 1}, view: dep.DB.View()}
	var allocs [2]float64
	for b, batch := range refs {
		want := []int{2, 20}[b]
		allocs[b] = testing.AllocsPerRun(50, func() {
			if got, err := src.bundles(batch, nil, 0); err != nil || len(got) != want {
				t.Fatalf("%d bundles, err=%v; want %d", len(got), err, want)
			}
		})
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("an IN batch allocates %v times at 2 matches, %v at 20", allocs[0], allocs[1])
	}
	if ceiling := 14.0; allocs[0] > ceiling {
		t.Errorf("an IN batch allocates %v times, want <= %v", allocs[0], ceiling)
	}
}
