// sdss-debug reproduces the "Debug Experimental Results" use case of §2.2:
// an SDSS-style archive where administrators silently upgrade the software
// on the compute images. A researcher's pipeline starts producing flawed
// output; without provenance the change is invisible, with provenance a
// diff of the two runs' ancestry pinpoints it immediately.
package main

import (
	"fmt"
	"io"
	"log"
	"maps"
	"os"
	"slices"

	"passcloud/internal/core"
	"passcloud/internal/pasfs"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/query"
	"passcloud/internal/sim"
	"passcloud/internal/trace"
	"passcloud/internal/uuid"
)

// runPipeline executes the photometry pipeline once, on the given JVM
// binary, writing its output under the given name.
func runPipeline(b *trace.Builder, jvm, out string) {
	pid := b.Spawn(0, jvm, "java", "-jar", "photometry.jar", "--catalog", "sdss-dr7")
	b.Read(pid, jvm, 40<<20)                         // the runtime the job executes under
	b.Read(pid, "sdss/raw/frame-004207.fit", 32<<20) // telescope frame
	b.Read(pid, "sdss/calib/photo-cal.par", 1<<20)   // calibration parameters
	b.WriteFile(pid, out, 4<<20).Exit(pid)
}

func main() {
	if err := run(os.Stdout, 42); err != nil {
		log.Fatal(err)
	}
}

// run replays both days on the manual clock and diffs their ancestry; the
// seed decides every byte it writes to w. P2 is the protocol this
// demonstrates, so the deployment is wired here rather than by fabric.New,
// which builds P3.
func run(w io.Writer, seed int64) error {
	env := sim.NewEnv(sim.Config{Seed: seed})
	dep := core.NewDeployment(env)
	proto := core.NewP2(dep, core.Options{}) // store + database: queryable provenance
	col := pass.New(env.Rand(), nil)
	fs := pasfs.New(env, proto, col, pasfs.Config{Collect: true})

	b := trace.NewBuilder()
	// Monday: the pipeline runs under JVM 1.5 and produces good output.
	runPipeline(b, "/opt/jvm-1.5/bin/java", "mnt/results/mags-monday.csv")
	// Overnight, administrators upgrade the image. Tuesday's run is
	// byte-for-byte the same script — but the output is flawed.
	runPipeline(b, "/opt/jvm-1.6/bin/java", "mnt/results/mags-tuesday.csv")

	if err := fs.Run(b.Trace()); err != nil {
		return err
	}
	dep.Settle()

	// Both runs read the same frame and calibration files, so the two
	// ancestry walks fetch many identical immutable items; the engine's
	// read-through cache serves the second walk's shared items client-side.
	eng := query.New(dep, core.BackendSDB)
	eng.SetCache(query.NewCache(0))
	monday, _, err := eng.ObjectProvenance("mnt/results/mags-monday.csv")
	if err != nil {
		return err
	}
	tuesday, _, err := eng.ObjectProvenance("mnt/results/mags-tuesday.csv")
	if err != nil {
		return err
	}

	// Expand one ancestry level: the writing process and what it read.
	fmt.Fprintln(w, "provenance diff, monday vs tuesday:")
	mset, err := ancestrySignature(eng, monday)
	if err != nil {
		return err
	}
	tset, err := ancestrySignature(eng, tuesday)
	if err != nil {
		return err
	}
	diffs := 0
	keys := maps.Clone(mset)
	maps.Copy(keys, tset)
	for _, k := range slices.Sorted(maps.Keys(keys)) {
		m, t := mset[k], tset[k]
		if m == t {
			continue
		}
		diffs++
		fmt.Fprintf(w, "  %-12s monday=%q tuesday=%q   <-- changed\n", k, m, t)
	}
	if diffs == 0 {
		fmt.Fprintln(w, "  (no differences — provenance collection failed!)")
	} else {
		fmt.Fprintf(w, "\n%d difference(s); the JVM swap is \"readily apparent in the provenance\" (§2.2)\n", diffs)
	}
	if s := eng.Cache().Stats(); s.Hits > 0 {
		fmt.Fprintf(w, "(read-through cache served %d of %d item lookups client-side)\n",
			s.Hits, s.Hits+s.Misses)
	}
	return nil
}

// versionsOf queries every recorded version of an object uuid through the
// composable API (Q2's routed single-shard plan, read through the cache).
func versionsOf(eng *query.Engine, u uuid.UUID) ([]prov.Bundle, error) {
	return eng.CollectBundles(query.Spec{
		Roots:     query.Roots{UUIDs: []uuid.UUID{u}},
		Direction: query.Versions,
	})
}

// ancestrySignature summarizes an output's one-hop ancestry: the process
// attributes and the names of everything it read.
func ancestrySignature(eng *query.Engine, bundles []prov.Bundle) (map[string]string, error) {
	sig := make(map[string]string)
	for _, b := range bundles {
		for _, r := range b.Records {
			if r.Attr != prov.AttrInput {
				continue
			}
			// The writer process: fetch its bundle and record its inputs.
			procBundles, err := versionsOf(eng, r.Xref.UUID)
			if err != nil {
				return nil, err
			}
			for _, pb := range procBundles {
				inputIdx := 0
				for _, pr := range pb.Records {
					switch {
					case pr.Attr == prov.AttrArgv:
						sig["argv:"+pr.Value] = pr.Value
					case pr.Attr == prov.AttrInput:
						name, err := nameOf(eng, pr.Xref)
						if err != nil {
							return nil, err
						}
						sig[fmt.Sprintf("input%d", inputIdx)] = name
						inputIdx++
					}
				}
			}
		}
	}
	return sig, nil
}

// nameOf resolves a ref to its recorded name attribute.
func nameOf(eng *query.Engine, ref prov.Ref) (string, error) {
	bundles, err := versionsOf(eng, ref.UUID)
	if err != nil {
		return "", err
	}
	for _, b := range bundles {
		if b.Ref == ref {
			return b.Name, nil
		}
	}
	return "", fmt.Errorf("no bundle for %s", ref)
}
