package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/frontdoor"
	"passcloud/internal/prov"
	"passcloud/internal/trace"
	"passcloud/internal/uuid"
)

// Every input the fabric sees is generated here from the -seed argument:
// the same seed gives the same transactions, traces, arrival schedules and
// query specs. The program under test receives only these inputs;
// sim.Config.Seed (service jitter, staleness) is derived from the same seed
// by envSeed.

// rng is one named generator stream. Streams of one seed are decorrelated
// by name so adding a draw to one generator never shifts another's.
type rng struct{ *rand.Rand }

func newRNG(seed int64, stream string) rng {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rng{rand.New(rand.NewSource(seed ^ int64(h.Sum64())))}
}

// Bytes makes rng a uuid.Source.
func (r rng) Bytes(n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

// envSeed derives the simulation's own seed from the benchmark seed.
func envSeed(seed int64) int64 { return newRNG(seed, "sim.Config.Seed").Int63() }

// txn is one generated transaction: the arguments of a Commit call.
type txn struct {
	obj     core.FileObject
	bundles []prov.Bundle
	tenant  int // index into the run's tenants; 0 when there is one client
}

// bulkPad keeps each bulk bundle near 1 KB without spilling past SimpleDB's
// 1 KB value limit.
var bulkPad = strings.Repeat("p", 900)

// genBulkTxns builds n transactions of the commit-pipeline shape: a process
// plus a chain of versions of one file it derives, bundlesPerTxn bundles of
// about 1 KB each and a 4 KB data object. salt keeps the paths and uuids of
// one repetition apart from another's.
func genBulkTxns(r rng, salt string, n, bundlesPerTxn int) []txn {
	out := make([]txn, 0, n)
	for t := 0; t < n; t++ {
		procRef := prov.Ref{UUID: uuid.New(r), Version: 1}
		fileUUID := uuid.New(r)
		path := fmt.Sprintf("mnt/bulk/%s/%06d", salt, t)
		bundles := make([]prov.Bundle, 0, bundlesPerTxn)
		bundles = append(bundles, prov.Bundle{
			Ref: procRef, Type: prov.Process, Name: "bulkprog",
			Records: []prov.Record{
				{Attr: prov.AttrType, Value: "proc"},
				{Attr: prov.AttrName, Value: "bulkprog"},
				{Attr: prov.AttrEnv, Value: bulkPad},
			},
		})
		var last prov.Ref
		for v := 1; v < bundlesPerTxn; v++ {
			ref := prov.Ref{UUID: fileUUID, Version: v}
			records := []prov.Record{
				{Attr: prov.AttrType, Value: "file"},
				{Attr: prov.AttrName, Value: path},
				{Attr: prov.AttrInput, Xref: procRef},
				{Attr: prov.AttrEnv, Value: bulkPad},
			}
			if v > 1 {
				records = append(records, prov.Record{Attr: prov.AttrPrevVer, Xref: last})
			}
			bundles = append(bundles, prov.Bundle{Ref: ref, Type: prov.File, Name: path, Records: records})
			last = ref
		}
		out = append(out, txn{
			obj:     core.FileObject{Path: path, Size: 4096, Ref: last},
			bundles: bundles,
		})
	}
	return out
}

// liveGen produces the small transactions of the live workloads: a job
// process and, usually, one file it writes. A share of the files are new
// versions of a file written earlier in the run, which is what lets a
// subscribed query cache see invalidations; dataShare of the transactions
// carry a 4 KB data object, the rest are pure provenance flushes.
type liveGen struct {
	r         rng
	tenants   []string
	split     []float64 // cumulative share of arrivals per tenant
	dataShare float64
	reviseP   float64

	n      int
	writes int        // file-writing transactions so far
	files  []liveFile // every file generated so far
}

type liveFile struct {
	uuid    uuid.UUID
	path    string
	version int
	tenant  int
}

func (g *liveGen) next() txn {
	i := g.n
	g.n++
	// The mix is a pattern over the transaction index, not a draw, so two
	// seeds offer the same shares of tenants, bare flushes, revisions and
	// data objects and differ only in when and what.
	tn := 0
	if len(g.tenants) > 1 {
		x := (float64(i%10) + 0.5) / 10
		for tn < len(g.split)-1 && x >= g.split[tn] {
			tn++
		}
	}
	band := frontdoor.BandFor(g.tenants[tn])
	procRef := prov.Ref{UUID: core.MintBandUUID(g.r, band), Version: 1}
	job := fmt.Sprintf("job-%02d", i%24)
	bundles := []prov.Bundle{{
		Ref: procRef, Type: prov.Process, Name: job,
		Records: []prov.Record{
			{Attr: prov.AttrType, Value: "proc"},
			{Attr: prov.AttrName, Value: job},
			{Attr: prov.AttrArgv, Value: fmt.Sprintf("--shard=%d", i)},
		},
	}}
	t := txn{tenant: tn}
	// One transaction in three is a bare process flush (1 bundle); the rest
	// also write a file (2 bundles).
	if i%3 == 0 {
		t.bundles = bundles
		return t
	}
	var f *liveFile
	if len(g.files) > 0 && g.reviseP > 0 && g.writes%int(1/g.reviseP+0.5) == 0 {
		// Revise a file of the same tenant so the item stays in its band.
		for tries := 0; tries < 8 && f == nil; tries++ {
			c := &g.files[g.r.Intn(len(g.files))]
			if c.tenant == tn {
				f = c
			}
		}
	}
	records := []prov.Record{{Attr: prov.AttrType, Value: "file"}}
	if f == nil {
		g.files = append(g.files, liveFile{
			uuid:   core.MintBandUUID(g.r, band),
			path:   fmt.Sprintf("mnt/live/t%d/%06d", tn, i),
			tenant: tn,
		})
		f = &g.files[len(g.files)-1]
	} else {
		records = append(records, prov.Record{Attr: prov.AttrPrevVer, Xref: prov.Ref{UUID: f.uuid, Version: f.version}})
	}
	g.writes++
	f.version++
	ref := prov.Ref{UUID: f.uuid, Version: f.version}
	records = append(records,
		prov.Record{Attr: prov.AttrName, Value: f.path},
		prov.Record{Attr: prov.AttrInput, Xref: procRef},
	)
	bundles = append(bundles, prov.Bundle{Ref: ref, Type: prov.File, Name: f.path, Records: records})
	t.bundles = bundles
	if g.dataShare > 0 && g.writes%int(1/g.dataShare+0.5) == 0 {
		t.obj = core.FileObject{Path: f.path, Size: 4096, Ref: ref}
	}
	return t
}

// poisson returns the due times of a Poisson arrival process of the given
// rate (per simulated second) over [0, dur).
func poisson(r rng, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	at := 0.0
	for {
		at += r.ExpFloat64() / rate
		d := time.Duration(at * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// zipfRanks draws n ranks in [0, imax] with P(k) proportional to
// (1+k)^-1.1: rank 0 is the most popular.
func zipfRanks(r rng, n int, imax uint64) []int {
	z := rand.NewZipf(r.Rand, 1.1, 1, imax)
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// genBlastTrace builds a Blast-shaped system-call stream of the given
// number of query batches: per batch, blastall reads the shared database
// and its own query file and writes raw hits to the mount; a formatter
// reads the raw hits and writes the report to the mount. That is two
// commits and five new provenance nodes per batch (plus the database node
// once), the small-transaction shape of the paper's real client path.
func genBlastTrace(r rng, salt string, batches int) trace.Trace {
	b := trace.NewBuilder()
	const kb = 1 << 10
	for i := 0; i < batches; i++ {
		raw := fmt.Sprintf("mnt/work/%s/raw%06d.out", salt, i)
		rep := fmt.Sprintf("mnt/out/%s/hits%06d.txt", salt, i)
		query := fmt.Sprintf("queries/%s/q%06d.fas", salt, i)

		blast := b.Spawn(0, "/usr/bin/blastall", "blastall", "-p", "blastp", "-d", "nr", "-i", query)
		b.Read(blast, "db/nr.fmt", 12*kb*kb)
		b.Read(blast, query, 256*kb)
		rawSz := int64(192*kb + r.Intn(128*kb))
		for c := 0; c < 3; c++ {
			b.Write(blast, raw, rawSz/3)
		}
		b.Close(blast, raw)
		b.Exit(blast)

		fmtr := b.Spawn(0, "/usr/bin/blastfmt", "blastfmt", raw)
		b.Read(fmtr, raw, rawSz)
		repSz := int64(48*kb + r.Intn(32*kb))
		b.Write(fmtr, rep, repSz)
		b.Close(fmtr, rep)
		b.Exit(fmtr)
	}
	return b.Trace()
}

// queryGraph is the preloaded corpus of query_mix and the handles the query
// generator draws from.
type queryGraph struct {
	specs    []core.ItemSpec
	programs []string
	chains   []queryChain // in zipf popularity order (a seeded permutation)
	depth    int
}

type queryChain struct {
	uuid uuid.UUID
	path string
}

// genQueryGraph builds programs × chainsPer derivation chains of the given
// depth — each chain is one file whose versions 1..depth each take the
// previous version as input, version 1 taking its program's process — and
// pads the corpus with unrelated noise files up to items.
func genQueryGraph(r rng, programs, chainsPer, depth, items int) queryGraph {
	g := queryGraph{depth: depth}
	for p := 0; p < programs; p++ {
		prog := fmt.Sprintf("prog-%02d", p)
		g.programs = append(g.programs, prog)
		procRef := prov.Ref{UUID: uuid.New(r), Version: 1}
		g.specs = append(g.specs, core.ItemSpec{Ref: procRef, Type: "proc", Name: prog})
		for c := 0; c < chainsPer; c++ {
			ch := queryChain{uuid: uuid.New(r), path: fmt.Sprintf("mnt/q/p%02d/c%04d", p, c)}
			parent := procRef
			for v := 1; v <= depth; v++ {
				ref := prov.Ref{UUID: ch.uuid, Version: v}
				g.specs = append(g.specs, core.ItemSpec{Ref: ref, Type: "file", Name: ch.path, Input: parent.String()})
				parent = ref
			}
			g.chains = append(g.chains, ch)
		}
	}
	for len(g.specs) < items {
		g.specs = append(g.specs, core.ItemSpec{
			Ref:  prov.Ref{UUID: uuid.New(r), Version: 1},
			Type: "file",
			Name: fmt.Sprintf("mnt/noise/%07d", len(g.specs)),
		})
	}
	r.Shuffle(len(g.chains), func(i, j int) { g.chains[i], g.chains[j] = g.chains[j], g.chains[i] })
	return g
}
