// Command provbench regenerates the tables and figures of "Provenance for
// the Cloud" (FAST '10) against the simulated deployment.
//
// Usage:
//
//	provbench [-run all|table1|table2|table3|table4|table5|fig3|fig4|ablations]
//	          [-seed N] [-scale F]
//
// -scale is the live-mode time scale (simulated seconds per wall second);
// larger is faster but noisier. The defaults reproduce the paper-shaped
// output in well under a minute.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"passcloud/internal/bench"
	"passcloud/internal/oracle"
	"passcloud/internal/sim"
)

func main() {
	run := flag.String("run", "all", "experiment to run (all, table1..table5, fig3, fig4, ablations)")
	seed := flag.Int64("seed", 42, "simulation seed")
	scale := flag.Float64("scale", 0, "live time scale override (0 = per-experiment default)")
	flag.Parse()

	want := func(name string) bool {
		return *run == "all" || strings.EqualFold(*run, name)
	}
	out := os.Stdout
	ran := false

	if want("table1") {
		ran = true
		bench.Banner(out, "Table 1 — Properties")
		rows, err := oracle.Table1(*seed)
		fail(err)
		bench.RenderTable1(out, rows)
	}
	if want("table2") {
		ran = true
		bench.Banner(out, "Table 2 — Per-service provenance upload")
		rows, err := bench.Table2(*seed, *scale, 0, 0, 0)
		fail(err)
		bench.RenderTable2(out, rows)
	}
	if want("fig3") || want("table3") {
		ran = true
		ec2, uml, err := bench.Fig3(*seed, *scale)
		fail(err)
		if want("fig3") {
			bench.Banner(out, "Figure 3 — Protocol microbenchmark")
			bench.RenderFig3(out, ec2, uml)
		}
		if want("table3") {
			bench.Banner(out, "Table 3 — Data and operation overheads")
			bench.RenderTable3(out, bench.Table3(ec2))
		}
	}
	if want("fig4") {
		ran = true
		for _, era := range []sim.Era{sim.EraSept09, sim.EraDec09} {
			bench.Banner(out, fmt.Sprintf("Figure 4 — Workload benchmarks (%s)", era))
			cells, err := bench.Fig4(era, *seed, *scale)
			fail(err)
			bench.RenderFig4(out, era, cells)
		}
	}
	if want("table4") {
		ran = true
		bench.Banner(out, "Table 4 — Cost per benchmark")
		rows, err := bench.Table4(*seed, *scale)
		fail(err)
		bench.RenderTable4(out, rows)
	}
	if want("table5") {
		ran = true
		bench.Banner(out, "Table 5 — Query performance")
		rows, err := bench.Table5(*seed, *scale)
		fail(err)
		bench.RenderTable5(out, rows)
	}
	if want("ablations") {
		ran = true
		bench.Banner(out, "Ablations")
		conns, err := bench.ConnSweep(*seed, *scale, nil)
		fail(err)
		bench.RenderConnSweep(out, conns)
		fmt.Fprintln(out)
		chunks, err := bench.ChunkSweep(*seed, *scale, nil)
		fail(err)
		bench.RenderChunkSweep(out, chunks)
		fmt.Fprintln(out)
		batches, err := bench.BatchSweep(*seed, *scale, nil)
		fail(err)
		bench.RenderBatchSweep(out, batches)
		fmt.Fprintln(out)
		cons, err := bench.ConsistencySweep(*seed, 0)
		fail(err)
		bench.RenderConsistency(out, cons)
		demo, err := bench.MetadataPersistenceDemo(*seed)
		fail(err)
		fmt.Fprintf(out, "Provenance-as-metadata persistence violation demonstrated: %v\n", demo)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "provbench: unknown experiment %q\n", *run)
		os.Exit(2)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "provbench:", err)
		os.Exit(1)
	}
}
