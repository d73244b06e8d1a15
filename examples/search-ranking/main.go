// search-ranking reproduces the "Improving Text Search Results" use case of
// §2.2 (after Shah et al.): a user archives project files on the cloud;
// content search alone ranks by term matches, but provenance links between
// files — like hyperlinks between web pages — let weight propagation
// re-rank the results and surface related files the content pass missed.
//
// The archive is committed through protocol P3, so the ranking runs against
// the cloud-recorded provenance via the composable query API (one
// All-direction Spec streamed into a graph), not the client's local cache.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"slices"

	"passcloud/internal/core"
	"passcloud/internal/fabric"
	"passcloud/internal/pasfs"
	"passcloud/internal/pass"
	"passcloud/internal/query"
	"passcloud/internal/search"
	"passcloud/internal/sim"
	"passcloud/internal/trace"
)

func main() {
	if err := run(os.Stdout, 42); err != nil {
		log.Fatal(err)
	}
}

// run archives the projects through P3 on the manual clock and ranks them;
// the seed decides every byte it writes to w.
func run(w io.Writer, seed int64) error {
	f, err := fabric.New(fabric.Config{Sim: sim.Config{Seed: seed}})
	if err != nil {
		return err
	}
	col := pass.New(f.Env.Rand(), nil)
	fs := pasfs.New(f.Env, f.P3, col, pasfs.Config{Collect: true})
	b := trace.NewBuilder()

	// A small research archive: a simulation produces raw traces; an
	// analysis script turns them into the "latency" dataset; a plotting
	// tool renders figures; a paper draft cites the figures. A second,
	// unrelated project lives alongside.
	sim1 := b.Spawn(0, "/usr/bin/simulate", "simulate", "--model", "queueing")
	b.Read(sim1, "configs/queueing.yaml", 4<<10)
	b.Write(sim1, "mnt/traces/run1.trace", 200<<20).Close(sim1, "mnt/traces/run1.trace")
	b.Write(sim1, "mnt/traces/run2.trace", 200<<20).Close(sim1, "mnt/traces/run2.trace")

	an := b.Spawn(0, "/usr/bin/analyze", "analyze", "--metric", "latency")
	b.Read(an, "mnt/traces/run1.trace", 200<<20)
	b.Read(an, "mnt/traces/run2.trace", 200<<20)
	b.Write(an, "mnt/data/latency-summary.csv", 1<<20).Close(an, "mnt/data/latency-summary.csv")

	plot := b.Spawn(0, "/usr/bin/plot", "plot")
	b.Read(plot, "mnt/data/latency-summary.csv", 1<<20)
	b.Write(plot, "mnt/figs/latency-cdf.pdf", 300<<10).Close(plot, "mnt/figs/latency-cdf.pdf")

	tex := b.Spawn(0, "/usr/bin/pdflatex", "pdflatex", "paper.tex")
	b.Read(tex, "mnt/figs/latency-cdf.pdf", 300<<10)
	b.Read(tex, "paper.tex", 80<<10)
	b.Write(tex, "mnt/paper/draft.pdf", 2<<20).Close(tex, "mnt/paper/draft.pdf")

	// Unrelated project in the same archive.
	other := b.Spawn(0, "/usr/bin/backup", "backup")
	b.Write(other, "mnt/misc/photos-index.db", 5<<20).Close(other, "mnt/misc/photos-index.db")

	if err := fs.Run(b.Trace()); err != nil {
		return err
	}
	if err := f.P3.Settle(); err != nil {
		return err
	}
	f.Dep.Settle()

	eng := query.New(f.Dep, core.BackendSDB)

	// One streamed drain of the stored provenance feeds both phases: the
	// All-direction drain is the expensive part, so it runs once.
	g, err := query.CollectGraph(eng.Run(query.Spec{Direction: query.All, Project: query.ProjectBundles}))
	if err != nil {
		return err
	}

	// Phase 1: pure content search for "latency" — finds only files whose
	// content (here: name) matches.
	seeds := search.ContentSearch(g, "latency")
	fmt.Fprintln(w, "content search for \"latency\":")
	for _, s := range seeds {
		fmt.Fprintf(w, "  %s\n", g.Node(s).Name)
	}

	// Phase 2: P rounds of weight propagation over the provenance DAG.
	results := search.Rerank(g, seeds, search.DefaultOptions())
	fmt.Fprintln(w, "\nafter provenance re-ranking:")
	for i, r := range results {
		marker := ""
		if !slices.Contains(seeds, r.Ref) {
			marker = "   <- surfaced by provenance, not content"
		}
		fmt.Fprintf(w, "  %2d. %-32s w=%.3f%s\n", i+1, r.Name, r.Weight, marker)
	}
	fmt.Fprintln(w, "\nnote: traces, figures and the paper draft join the results through")
	fmt.Fprintln(w, "dependency links; the unrelated photo index never appears.")
	return nil
}
