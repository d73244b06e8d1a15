// Quickstart: mount a provenance-aware cloud file system, run a tiny
// two-stage pipeline through it, and query the provenance back out of the
// cloud — the whole architecture of the paper in one file.
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
	"passcloud/internal/query"
	"passcloud/internal/sim"
	"passcloud/internal/trace"
	"passcloud/internal/uuid"
)

func main() {
	if err := run(os.Stdout, 42); err != nil {
		log.Fatal(err)
	}
}

// run is the whole session on the manual clock: the seed decides every
// byte it writes to w.
func run(w io.Writer, seed int64) error {
	// 1. A simulated AWS deployment — object store (S3), database
	// (SimpleDB) and queue (SQS), eventually consistent, seeded — with
	// protocol P3 on top: store + database + queue-as-WAL, the protocol
	// that satisfies all the provenance properties.
	f, err := fabric.New(fabric.Config{Sim: sim.Config{Seed: seed}})
	if err != nil {
		return err
	}

	// 2. PASS collects provenance; PA-S3fs caches and flushes through the
	// protocol on close. Commits are synchronous so the replay draws from
	// the seeded stream in trace order.
	collector := pass.New(f.Env.Rand(), nil)
	fs := pasfs.New(f.Env, f.P3, collector, pasfs.Config{Collect: true})

	// 3. Run a pipeline: sort reads raw.csv and writes mnt/sorted.csv;
	// report reads that and writes mnt/report.txt.
	b := trace.NewBuilder()
	sorter := b.Spawn(0, "/usr/bin/sort", "sort", "raw.csv")
	b.Read(sorter, "raw.csv", 1<<20)
	b.Write(sorter, "mnt/sorted.csv", 1<<20).Close(sorter, "mnt/sorted.csv")
	reporter := b.Spawn(0, "/usr/bin/report", "report", "--format=txt")
	b.Read(reporter, "mnt/sorted.csv", 1<<20)
	b.Write(reporter, "mnt/report.txt", 64<<10).Close(reporter, "mnt/report.txt")

	if err := fs.Run(b.Trace()); err != nil {
		return err
	}
	// The commit daemon pushes WAL transactions to their final state.
	if err := f.P3.Settle(); err != nil {
		return err
	}
	f.Dep.Settle() // let eventual consistency converge

	// 4. Read the report back with coupling verification: the data's
	// metadata must match the provenance recorded in the database.
	rep, err := core.VerifiedFetch(f.Dep, core.BackendSDB, "mnt/report.txt", 10)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "report.txt is version %d of object %s (coupled: %v)\n",
		rep.Linked.Version, rep.Linked.UUID, rep.Coupled)

	// 5. Query: where did report.txt come from?
	eng := query.New(f.Dep, core.BackendSDB)
	bundles, _, err := eng.ObjectProvenance("mnt/report.txt")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nprovenance of mnt/report.txt:")
	for _, bun := range bundles {
		fmt.Fprintf(w, "  %s v%d (%s)\n", bun.Name, bun.Ref.Version, bun.Type)
		for _, r := range bun.Records {
			if r.IsXref() {
				fmt.Fprintf(w, "    %-10s -> %s\n", r.Attr, r.Xref)
			}
		}
	}

	// 6. And the full ancestry walk: every ancestor must be present
	// (multi-object causal ordering).
	ref, _ := collector.FileRef("mnt/report.txt")
	walk, err := core.CheckCausalOrdering(f.Dep, core.BackendSDB, ref)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nancestry walk visited %d nodes, dangling references: %d\n",
		walk.Visited, len(walk.Dangling))

	// 7. Deleting the data does not delete its history
	// (data-independent persistence): the versions query still answers by
	// uuid after the primary object is gone.
	if err := f.P3.Delete("mnt/report.txt"); err != nil {
		return err
	}
	f.Dep.Settle()
	survived, err := eng.CollectBundles(query.Spec{
		Roots:     query.Roots{UUIDs: []uuid.UUID{ref.UUID}},
		Direction: query.Versions,
	})
	if err != nil {
		return err
	}
	if len(survived) == 0 {
		return errors.New("provenance lost after delete")
	}
	fmt.Fprintf(w, "data deleted; %d provenance version(s) still readable — persistence holds\n",
		len(survived))

	// What did this session cost?
	u := f.Env.Meter().Usage()
	fmt.Fprintf(w, "\nsession cloud bill: $%.4f (%d requests, %.1f KB in)\n",
		u.Cost(0), u.TotalOps, float64(u.BytesIn)/1024)
	return nil
}
