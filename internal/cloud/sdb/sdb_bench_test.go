package sdb

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"passcloud/internal/sim"
)

// Micro-benchmarks of the store on ingest_bulk-shaped items: one process
// item and 63 versions of one file per transaction, every item carrying the
// same 900-byte environment value as its own private copy (the WAL decoder
// allocates each value afresh), a file name and an input edge shared by the
// transaction, and a unique previous-version edge.

const (
	benchBundles = 64
	benchEnvLen  = 900
)

var benchEnv = strings.Repeat("E", benchEnvLen)

// benchRef is the item name of version v of object o in the uuid_version
// scheme.
func benchRef(o, v int) string { return fmt.Sprintf("%08x-0000-4000-8000-%012x_%d", o, o, v) }

// bulkTxn returns the 64 put requests of transaction t.
func bulkTxn(t int) []PutRequest {
	proc, file := 2*t, 2*t+1
	path := fmt.Sprintf("mnt/bulk/r0/%06d", t)
	env := func() string { return string([]byte(benchEnv)) }
	reqs := make([]PutRequest, 0, benchBundles)
	reqs = append(reqs, PutRequest{Item: benchRef(proc, 1), Replace: true, Attrs: []Attr{
		{Name: "type", Value: "proc"}, {Name: "name", Value: "bulkprog"}, {Name: "env", Value: env()},
	}})
	for v := 1; v < benchBundles; v++ {
		attrs := []Attr{
			{Name: "type", Value: "file"}, {Name: "name", Value: path},
			{Name: "input", Value: benchRef(proc, 1)}, {Name: "env", Value: env()},
		}
		if v > 1 {
			attrs = append(attrs, Attr{Name: "prev", Value: benchRef(file, v-1)})
		}
		reqs = append(reqs, PutRequest{Item: benchRef(file, v), Replace: true, Attrs: attrs})
	}
	return reqs
}

func benchDomain() *Domain {
	cfg := sim.DefaultConfig()
	cfg.Consistency = sim.Strict
	return New(sim.NewEnv(cfg), "prov")
}

// heapBytes returns the live heap after a collection.
func heapBytes() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// benchItems is the size of the domains the benchmarks work on.
const benchItems = 20_000

// benchReqs returns the put requests of benchItems items.
func benchReqs() []PutRequest {
	var reqs []PutRequest
	for t := 0; len(reqs) < benchItems; t++ {
		reqs = append(reqs, bulkTxn(t)...)
	}
	return reqs[:benchItems]
}

// BenchmarkBatchPut writes one 25-item BatchPutAttributes per operation into
// a domain of benchItems items (then starts a fresh one) and reports what
// the domain holds per item once the requests are garbage (live-B/item),
// which is what ingest_bulk's live heap is made of.
func BenchmarkBatchPut(b *testing.B) {
	b.ReportAllocs()
	base := heapBytes()
	var d *Domain
	var pending []PutRequest
	items := 0
	b.ResetTimer()
	// A classic b.N loop: b.Loop's ramp-up does not account for the stopped
	// timer around building a domain's requests and runs away.
	for range b.N {
		if len(pending) == 0 {
			b.StopTimer()
			d, pending, items = benchDomain(), benchReqs(), 0
			b.StartTimer()
		}
		if err := d.BatchPutAttributes(pending[:MaxBatchItems]); err != nil {
			b.Fatal(err)
		}
		pending = pending[MaxBatchItems:]
		items += MaxBatchItems
	}
	pending = nil
	b.ReportMetric(float64(heapBytes()-base)/float64(items), "live-B/item")
	runtime.KeepAlive(d)
}

// selectDomain holds benchItems ingest_bulk-shaped items.
func selectDomain(b *testing.B) (*Domain, int) {
	b.Helper()
	d := benchDomain()
	for reqs := range slices.Chunk(benchReqs(), MaxBatchItems) {
		if err := d.BatchPutAttributes(reqs); err != nil {
			b.Fatal(err)
		}
	}
	return d, benchItems / benchBundles
}

// BenchmarkSelectEq resolves one `name = path` equality per operation: the
// 63 versions of one file.
func BenchmarkSelectEq(b *testing.B) {
	d, txns := selectDomain(b)
	q := Query{Domain: d.Name(), ItemOnly: true, Where: Eq("name", "")}
	b.ReportAllocs()
	t := 0
	for b.Loop() {
		q.Where = Eq("name", fmt.Sprintf("mnt/bulk/r0/%06d", t%txns))
		t++
		page, err := d.SelectQuery(q, "")
		if err != nil || len(page.Items) != benchBundles-1 {
			b.Fatalf("%d items, err=%v", len(page.Items), err)
		}
	}
}

// BenchmarkSelectIn resolves one 20-ref `input IN (...)` per operation, the
// shape a descendants level issues: every file version under 20 processes.
func BenchmarkSelectIn(b *testing.B) {
	const refs = 20
	d, txns := selectDomain(b)
	q := Query{Domain: d.Name(), ItemOnly: true}
	vals := make([]string, refs)
	b.ReportAllocs()
	t := 0
	for b.Loop() {
		for i := range vals {
			vals[i] = benchRef(2*((t+i)%txns), 1)
		}
		t += refs
		q.Where = In("input", vals...)
		page, err := d.SelectQuery(q, "")
		if err != nil || len(page.Items) != refs*(benchBundles-1) {
			b.Fatalf("%d items, err=%v", len(page.Items), err)
		}
	}
}
