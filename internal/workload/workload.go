// Package workload synthesizes the three workloads of the paper's
// evaluation (§5) as system-call traces, plus the Linux-compile provenance
// stream used by the Table-2 service microbenchmark.
//
// Each generator is calibrated to the workload characteristics the paper
// publishes: the nightly CVS backup is I/O-bound with a nearly flat
// provenance tree and ≈240 file-system operations on the mount; Blast mixes
// compute and I/O with a provenance tree of depth five and ≈10,773 mount
// operations; the provenance-challenge workload is the deepest with a
// maximum path length of eleven and ≈6,179 mount operations.
package workload

import (
	"fmt"
	"time"

	"passcloud/internal/sim"
	"passcloud/internal/trace"
)

// Workload is a named trace plus the metadata the benchmarks need.
type Workload struct {
	Name string
	// Trace is the syscall stream replayed through PASS and PA-S3fs.
	Trace trace.Trace
	// FinalPrefix marks the "final results of the computation": the
	// microbenchmark of §5.1 uploads only objects under this prefix.
	FinalPrefix string
	// Program is the process name Q3/Q4 search for in this workload.
	Program string
}

// MB is a convenient size unit for the generators.
const MB = int64(1 << 20)

// Nightly simulates the CVSROOT nightly backup: thirty nights, each
// extracting a snapshot of the repository (local reads), packing it with cp
// into a tarball written to the cloud mount. The provenance tree is nearly
// flat — the archive's only ancestors are the cp process and the repository
// files. ≈240 mount operations, ≈10.2 GB uploaded, negligible compute.
func Nightly(rnd *sim.Rand) Workload {
	b := trace.NewBuilder()
	const nights = 30
	const repoFiles = 40
	repo := make([]string, repoFiles)
	for i := range repo {
		repo[i] = fmt.Sprintf("cvsroot/module%02d,v", i)
	}
	for night := 0; night < nights; night++ {
		pid := b.Spawn(0, "/bin/cp", "cp", "-r", "cvsroot", "backup")
		total := int64(0)
		for _, f := range repo {
			sz := int64(rnd.NormInt(int(8*MB)+int(MB)/2, int(MB/2), int(MB)))
			b.Read(pid, f, sz)
			total += sz
		}
		b.Compute(pid, 400*time.Millisecond) // tar/gzip-ish packing
		out := fmt.Sprintf("mnt/backup/night-%02d.tar", night)
		// The archive streams out in seven chunks, then one close: eight
		// mount operations per night, 240 across the workload.
		chunk := total / 7
		for c := 0; c < 7; c++ {
			b.Write(pid, out, chunk)
		}
		b.Close(pid, out)
		b.Exit(pid)
	}
	return Workload{Name: "nightly", Trace: b.Trace(), FinalPrefix: "mnt/backup/", Program: "cp"}
}

// Blast simulates the NIH protein-search workload: formatdb prepares the
// species databases locally, then each query batch runs blastall (raw hits
// to the mount) and a formatter (final report to the mount). Provenance
// paths have depth five: database -> blastall -> raw -> formatter -> report.
// ≈10,773 mount operations, ≈3.4 GB uploaded, ≈600 final result files
// totalling ≈713 MB.
func Blast(rnd *sim.Rand) Workload {
	b := trace.NewBuilder()
	const batches = 595

	// The formatted species databases are pre-existing local inputs (the
	// NIH job runs against an already-built nr database); keeping them out
	// of the derivation chain gives the workload its depth-five paths:
	// database -> blastall -> raw -> blastfmt -> report.
	for i := 0; i < batches; i++ {
		raw := fmt.Sprintf("mnt/work/raw%03d.out", i)
		rep := fmt.Sprintf("mnt/out/hits%03d.txt", i)
		query := fmt.Sprintf("queries/q%03d.fas", i)

		blast := b.Spawn(0, "/usr/bin/blastall", "blastall", "-p", "blastp", "-d", "nr", "-i", query)
		b.Read(blast, "db/nr.fmt", 12*MB)
		b.Read(blast, query, MB/4)
		b.Compute(blast, 420*time.Millisecond)
		rawSz := int64(rnd.NormInt(int(4*MB)+int(MB)/2, int(MB)/3, int(MB)))
		for c := 0; c < 6; c++ { // six chunked writes
			b.Write(blast, raw, rawSz/6)
		}
		b.Close(blast, raw)
		b.Exit(blast)

		fmtr := b.Spawn(0, "/usr/bin/blastfmt", "blastfmt", raw)
		for c := 0; c < 4; c++ { // four chunked reads of the raw hits
			b.Read(fmtr, raw, rawSz/4)
		}
		b.Compute(fmtr, 130*time.Millisecond)
		repSz := int64(rnd.NormInt(int(MB)+int(MB)/5, int(MB)/8, int(MB)/2))
		for c := 0; c < 5; c++ {
			b.Write(fmtr, rep, repSz/5)
		}
		b.Flush(fmtr, rep)
		b.Close(fmtr, rep)
		b.Exit(fmtr)
	}

	// A handful of whole-run summaries, also final results.
	sum := b.Spawn(0, "/usr/bin/blastsum", "blastsum")
	for i := 0; i < 20; i++ {
		out := fmt.Sprintf("mnt/out/summary%02d.txt", i)
		b.Write(sum, out, MB/2)
		b.Close(sum, out)
	}
	b.Exit(sum)
	return Workload{Name: "blast", Trace: b.Trace(), FinalPrefix: "mnt/out/", Program: "blastall"}
}

// Challenge simulates the first provenance challenge's fMRI pipeline:
// align_warp, reslice, softmean, slicer, convert. The provenance graph is
// the deepest of the three workloads — the path from an input image to a
// graphical atlas has length eleven. ≈6,179 mount operations, ≈2.6 GB
// uploaded.
func Challenge(rnd *sim.Rand) Workload {
	b := trace.NewBuilder()
	const images = 160
	ref := "images/reference.img"

	resliced := make([]string, images)
	for i := 0; i < images; i++ {
		img := fmt.Sprintf("images/anatomy%03d.img", i)
		warp := fmt.Sprintf("mnt/chal/warp%03d.w", i)
		res := fmt.Sprintf("mnt/chal/resliced%03d.img", i)
		resliced[i] = res

		aw := b.Spawn(0, "/usr/bin/align_warp", "align_warp", img, ref, warp)
		b.Read(aw, img, 16*MB)
		b.Read(aw, ref, 12*MB)
		b.Compute(aw, 1200*time.Millisecond)
		wsz := int64(rnd.NormInt(int(MB)/3, int(MB)/16, int(MB)/8))
		b.Write(aw, warp, wsz/2)
		b.Write(aw, warp, wsz/2)
		b.Close(aw, warp)
		b.Exit(aw)

		rs := b.Spawn(0, "/usr/bin/reslice", "reslice", warp, res)
		b.Read(rs, warp, wsz)
		b.Read(rs, img, 16*MB)
		b.Compute(rs, 800*time.Millisecond)
		for c := 0; c < 32; c++ {
			b.Write(rs, res, MB/2)
		}
		b.Close(rs, res)
		b.Exit(rs)
	}

	sm := b.Spawn(0, "/usr/bin/softmean", "softmean", "atlas.img")
	for _, res := range resliced {
		b.Read(sm, res, 16*MB)
	}
	b.Compute(sm, 40*time.Second)
	for c := 0; c < 32; c++ {
		b.Write(sm, "mnt/chal/atlas.img", MB/2)
	}
	b.Close(sm, "mnt/chal/atlas.img")
	b.Exit(sm)

	for _, dim := range []string{"x", "y", "z"} {
		pgm := fmt.Sprintf("mnt/chal/atlas-%s.pgm", dim)
		gif := fmt.Sprintf("mnt/out/atlas-%s.gif", dim)

		sl := b.Spawn(0, "/usr/bin/slicer", "slicer", "-"+dim, "atlas.img")
		b.Read(sl, "mnt/chal/atlas.img", 16*MB)
		b.Compute(sl, 4*time.Second)
		b.Write(sl, pgm, MB/2)
		b.Write(sl, pgm, MB/2)
		b.Close(sl, pgm)
		b.Exit(sl)

		cv := b.Spawn(0, "/usr/bin/convert", "convert", pgm, gif)
		b.Read(cv, pgm, MB)
		b.Compute(cv, 3*time.Second)
		b.Write(cv, gif, 700*1024/2)
		b.Write(cv, gif, 700*1024/2)
		b.Close(cv, gif)
		b.Exit(cv)
	}
	return Workload{Name: "challenge", Trace: b.Trace(), FinalPrefix: "mnt/out/", Program: "align_warp"}
}

// ByName returns the named workload generated with rnd.
func ByName(name string, rnd *sim.Rand) (Workload, error) {
	switch name {
	case "nightly":
		return Nightly(rnd), nil
	case "blast":
		return Blast(rnd), nil
	case "challenge":
		return Challenge(rnd), nil
	}
	return Workload{}, fmt.Errorf("workload: unknown workload %q", name)
}

// All returns the three workloads in the paper's presentation order.
func All(rnd *sim.Rand) []Workload {
	return []Workload{Blast(rnd), Nightly(rnd), Challenge(rnd)}
}
