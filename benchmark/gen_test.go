package main

import (
	"reflect"
	"testing"
	"time"
)

func TestSeedDeterminesEveryGeneratedInput(t *testing.T) {
	a := poisson(newRNG(7, "arrivals"), 60, 20*time.Second)
	b := poisson(newRNG(7, "arrivals"), 60, 20*time.Second)
	c := poisson(newRNG(8, "arrivals"), 60, 20*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different arrival schedule")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same arrival schedule")
	}
	if n := len(a); n < 1000 || n > 1400 {
		t.Errorf("60/s over 20 s gave %d arrivals", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("arrival schedule is not in time order")
		}
	}

	if !reflect.DeepEqual(zipfRanks(newRNG(7, "z"), 500, 3999), zipfRanks(newRNG(7, "z"), 500, 3999)) {
		t.Error("same seed, different zipf draws")
	}
	zr := zipfRanks(newRNG(7, "z"), 5000, 3999)
	zero := 0
	for _, r := range zr {
		if r < 0 || r > 3999 {
			t.Fatalf("zipf rank %d out of range", r)
		}
		if r == 0 {
			zero++
		}
	}
	if zero < len(zr)/20 {
		t.Errorf("rank 0 drawn %d times in %d: not skewed", zero, len(zr))
	}

	if !reflect.DeepEqual(genBlastTrace(newRNG(7, "t"), "r", 20), genBlastTrace(newRNG(7, "t"), "r", 20)) {
		t.Error("same seed, different trace")
	}
	if !reflect.DeepEqual(genBulkTxns(newRNG(7, "b"), "r", 5, 8), genBulkTxns(newRNG(7, "b"), "r", 5, 8)) {
		t.Error("same seed, different bulk transactions")
	}
	if reflect.DeepEqual(genBulkTxns(newRNG(7, "b"), "r", 5, 8), genBulkTxns(newRNG(8, "b"), "r", 5, 8)) {
		t.Error("different seeds, same bulk transactions")
	}

	spec := liveSpec{commitRate: 30, queryRate: 5, dataShare: 0.1, reviseP: 0.2, preload: 10}
	spec.fab.tenants, spec.split = liveTenants(30)
	x, y := genLive(7, spec, 30*time.Second), genLive(7, spec, 30*time.Second)
	if !reflect.DeepEqual(x, y) {
		t.Error("same seed, different live input")
	}
	if envSeed(7) != envSeed(7) || envSeed(7) == envSeed(8) {
		t.Error("env seed is not a function of the benchmark seed")
	}
}

func TestGeneratedShapes(t *testing.T) {
	txns := genBulkTxns(newRNG(1, "b"), "r", 3, 64)
	for _, x := range txns {
		if len(x.bundles) != 64 || x.obj.Size != 4096 {
			t.Fatalf("bulk txn has %d bundles, %d-byte object", len(x.bundles), x.obj.Size)
		}
		if sz := x.bundles[5].Size(); sz < 900 || sz > 1200 {
			t.Errorf("bulk bundle is %d bytes, want about 1 KB", sz)
		}
	}

	g := genQueryGraph(newRNG(1, "q"), 4, 5, 10, 300)
	if len(g.specs) != 300 || len(g.chains) != 20 || len(g.programs) != 4 {
		t.Fatalf("graph: %d specs, %d chains, %d programs", len(g.specs), len(g.chains), len(g.programs))
	}
	for _, q := range genQueries(newRNG(1, "qq"), g, 200) {
		if q.want <= 0 {
			t.Fatalf("query of kind %d expects %d results", q.kind, q.want)
		}
	}

	spec := liveSpec{commitRate: 30, dataShare: 0.5, reviseP: 0.5}
	spec.fab.tenants, spec.split = liveTenants(30)
	in := genLive(3, spec, 40*time.Second)
	revisions, data, perTenant := 0, 0, [2]int{}
	seen := map[string]bool{}
	for _, x := range in.txns {
		perTenant[x.tenant]++
		if x.obj.Path != "" {
			data++
		}
		for _, b := range x.bundles {
			if seen[b.Ref.String()] {
				t.Fatalf("ref %s generated twice", b.Ref)
			}
			seen[b.Ref.String()] = true
			if b.Ref.Version > 1 {
				revisions++
			}
		}
	}
	if revisions == 0 || data == 0 {
		t.Errorf("%d revisions, %d data-bearing transactions in %d", revisions, data, len(in.txns))
	}
	if share := float64(perTenant[0]) / float64(len(in.txns)); share < 0.5 || share > 0.7 {
		t.Errorf("tenant-a got %.2f of the arrivals, want about 0.6", share)
	}
	if in.items != len(seen) {
		t.Errorf("input says %d items, transactions carry %d", in.items, len(seen))
	}
}
