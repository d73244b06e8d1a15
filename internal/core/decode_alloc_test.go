package core_test

import (
	"testing"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// versionItems writes n versions of one file, each with an input edge and
// its previous version, at K=4, and returns the deployment, the uuid and the
// items as a SELECT returns them.
func versionItems(t *testing.T, n int) (*core.Deployment, uuid.UUID, []sdb.Item) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Consistency = sim.Strict
	dep := core.NewShardedDeployment(sim.NewEnv(cfg), core.Topology{WALShards: 4, DBShards: 4})
	rnd := sim.NewRand(int64(n))
	u, proc := uuid.New(rnd), prov.Ref{UUID: uuid.New(rnd), Version: 1}
	var bundles []prov.Bundle
	for v := 1; v <= n; v++ {
		recs := []prov.Record{{Attr: prov.AttrType, Value: "file"}, {Attr: prov.AttrName, Value: "mnt/out"}, {Attr: prov.AttrInput, Xref: proc}}
		if v > 1 {
			recs = append(recs, prov.Record{Attr: prov.AttrPrevVer, Xref: prov.Ref{UUID: u, Version: v - 1}})
		}
		bundles = append(bundles, prov.Bundle{Ref: prov.Ref{UUID: u, Version: v}, Records: recs})
	}
	reqs, err := core.ItemsForBundles(dep.Store, bundles)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.DB.BulkPut(reqs, 1, false); err != nil {
		t.Fatal(err)
	}
	items := make([]sdb.Item, len(reqs))
	for i, r := range reqs {
		items[i] = sdb.Item{Name: r.Item, Attrs: r.Attrs}
	}
	return dep, u, items
}

// TestDecodeAllocationsFlat pins what reading a result back into bundles
// allocates, whatever its size: BundlesFromItems one bundle slab and one
// record slab, and a ReadProvenanceView into a reused Result the same count
// at 2, 10 and 20 versions: the drain writes into the Result's storage, so
// only the predicate and the decode allocate, however many items it holds.
func TestDecodeAllocationsFlat(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	counts := map[int][2]float64{}
	for _, n := range []int{2, 10, 20} {
		dep, u, items := versionItems(t, n)
		decode := testing.AllocsPerRun(50, func() {
			if bs, err := core.BundlesFromItems(items); err != nil || len(bs) != n {
				t.Fatalf("%d bundles, err=%v", len(bs), err)
			}
		})
		v, r := dep.DB.View(), new(sdb.Result)
		read := testing.AllocsPerRun(50, func() {
			if bs, err := core.ReadProvenanceView(v, u, r); err != nil || len(bs) != n {
				t.Fatalf("%d versions, err=%v", len(bs), err)
			}
		})
		counts[n] = [2]float64{decode, read}
	}
	if counts[2] != counts[10] || counts[10] != counts[20] {
		t.Fatalf("allocations (BundlesFromItems, ReadProvenanceView) by versions: %v, want one count for any size", counts)
	}
	if c := counts[10]; c[0] != 2 || c[1] > 5 {
		t.Errorf("a 10-version result: BundlesFromItems %v allocations (want 2), ReadProvenanceView %v (want <= 5)", c[0], c[1])
	}
}
