// faulty-data reproduces the "Detect and Avoid Faulty Data Propagation" use
// case of §2.2: a miscalibrated instrument feeds an SDSS-style reduction
// pipeline; once the bad calibration is discovered, a descendant query over
// the cloud-stored provenance finds exactly how far the damage spread — and
// which outputs are safe.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"passcloud/internal/core"
	"passcloud/internal/fabric"
	"passcloud/internal/pasfs"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/query"
	"passcloud/internal/sim"
	"passcloud/internal/trace"
)

func main() {
	if err := run(os.Stdout, 42); err != nil {
		log.Fatal(err)
	}
}

// run replays the pipeline through P3 on the manual clock and queries the
// damage; the seed decides every byte it writes to w.
func run(w io.Writer, seed int64) error {
	f, err := fabric.New(fabric.Config{Sim: sim.Config{Seed: seed}})
	if err != nil {
		return err
	}
	col := pass.New(f.Env.Rand(), nil)
	fs := pasfs.New(f.Env, f.P3, col, pasfs.Config{Collect: true})

	b := trace.NewBuilder()

	// Two calibration files: cal-A (later found faulty) and cal-B (good).
	// Frames 0..3 are reduced with cal-A, frames 4..7 with cal-B.
	for i := 0; i < 8; i++ {
		cal := "mnt/calib/cal-A.par"
		if i >= 4 {
			cal = "mnt/calib/cal-B.par"
		}
		if i == 0 || i == 4 {
			gen := b.Spawn(0, "/usr/bin/mkcalib", "mkcalib")
			b.WriteFile(gen, cal, 1<<20).Exit(gen)
		}
		reduce := b.Spawn(0, "/usr/bin/reduce", "reduce", fmt.Sprintf("frame-%d", i))
		b.Read(reduce, fmt.Sprintf("raw/frame-%d.fit", i), 16<<20)
		b.Read(reduce, cal, 1<<20)
		out := fmt.Sprintf("mnt/reduced/frame-%d.fits", i)
		b.WriteFile(reduce, out, 8<<20).Exit(reduce)
	}
	// A mosaic combines reduced frames 2..5 — it straddles the two
	// calibrations, so it is tainted through frames 2 and 3.
	mosaic := b.Spawn(0, "/usr/bin/mosaic", "mosaic")
	for i := 2; i <= 5; i++ {
		b.Read(mosaic, fmt.Sprintf("mnt/reduced/frame-%d.fits", i), 8<<20)
	}
	b.WriteFile(mosaic, "mnt/atlas/stripe82.fits", 20<<20).Exit(mosaic)

	if err := fs.Run(b.Trace()); err != nil {
		return err
	}
	if err := f.P3.Settle(); err != nil {
		return err
	}
	f.Dep.Settle()

	// The lab discovers cal-A was produced by a miscalibrated instrument.
	badRef, ok := col.FileRef("mnt/calib/cal-A.par")
	if !ok {
		return errors.New("calibration file untracked")
	}
	fmt.Fprintf(w, "faulty object: mnt/calib/cal-A.par (%s)\n\n", badRef)

	// One declarative query over the *cloud-recorded* provenance (not the
	// local graph): everything derived from the faulty ref, filtered to
	// named file versions, with full bundles so the names print directly.
	// The engine runs it as Q4's plan — one round of indexed, IN-batched
	// SELECTs per derivation level.
	eng := query.New(f.Dep, core.BackendSDB)
	eng.SetCache(query.NewCache(0))
	taintSpec := query.Spec{
		Roots:     query.Roots{Refs: []prov.Ref{badRef}},
		Direction: query.Descendants,
		Filter:    query.And(query.TypeIs(prov.File), query.Not(query.NameIs(""))),
		Project:   query.ProjectBundles,
	}
	fmt.Fprintln(w, "plan:", eng.Describe(taintSpec))
	fmt.Fprintln(w, "tainted derivations:")
	taintedNames := make(map[string]bool)
	for r, err := range eng.Run(taintSpec) {
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %s (v%d, %d hops from the bad calibration)\n",
			r.Bundle.Name, r.Ref.Version, r.Depth)
		taintedNames[r.Bundle.Name] = true
	}

	fmt.Fprintln(w, "\nsafe outputs:")
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("mnt/reduced/frame-%d.fits", i)
		if !taintedNames[name] {
			fmt.Fprintf(w, "  %s\n", name)
		}
	}
	if taintedNames["mnt/atlas/stripe82.fits"] {
		fmt.Fprintln(w, "\nthe stripe82 atlas is tainted through frames 2-3 and must be regenerated")
	}
	return nil
}
