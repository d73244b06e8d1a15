// replication exercises the observation of §4.3 that the protocols "can
// also be used while replicating data and provenance across different cloud
// service providers": an AWS-style eventually consistent deployment is
// mirrored into an Azure-style strictly consistent one by replaying data
// and provenance through protocol P2 on the destination, then verifying
// coupling and ancestry on the replica.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"passcloud/internal/core"
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

// run populates and replicates on the manual clock; the seed decides every
// byte it writes to w. P2 is the protocol this demonstrates, so both
// deployments are wired here rather than by fabric.New, which builds P3.
func run(w io.Writer, seed int64) error {
	// Source: AWS-style (eventual consistency).
	srcEnv := sim.NewEnv(sim.Config{Seed: seed})
	src := core.NewDeployment(srcEnv)
	srcProto := core.NewP2(src, core.Options{})
	col := pass.New(srcEnv.Rand(), nil)
	fs := pasfs.New(srcEnv, srcProto, col, pasfs.Config{Collect: true})

	// Populate the source with a small pipeline.
	b := trace.NewBuilder()
	gen := b.Spawn(0, "/usr/bin/genomics", "genomics", "--assemble")
	b.Read(gen, "reads/sample.fastq", 500<<20)
	b.Write(gen, "mnt/asm/contigs.fa", 80<<20).Close(gen, "mnt/asm/contigs.fa")
	ann := b.Spawn(0, "/usr/bin/annotate", "annotate")
	b.Read(ann, "mnt/asm/contigs.fa", 80<<20)
	b.Write(ann, "mnt/asm/genes.gff", 4<<20).Close(ann, "mnt/asm/genes.gff")
	if err := fs.Run(b.Trace()); err != nil {
		return err
	}
	src.Settle()

	// Destination: Azure-style (strict consistency). The protocols are
	// "independent of the storage model and applicable whenever provenance
	// has to be stored on the cloud" — same P2, different provider.
	dstEnv := sim.NewEnv(sim.Config{Seed: seed + 1, Consistency: sim.Strict}) // another provider, another stream
	dst := core.NewDeployment(dstEnv)
	dstProto := core.NewP2(dst, core.Options{Ordered: true}) // replicas keep strict ancestor order

	// Replicate: walk the source provenance (Q1-style dump), then re-commit
	// every object with its provenance, ancestors first.
	eng := query.New(src, core.BackendSDB)
	bundles, _, err := eng.AllProvenance(8)
	if err != nil {
		return err
	}
	graph := prov.NewGraph()
	for _, bun := range bundles {
		if graph.Node(bun.Ref) == nil {
			graph.AddBundle(bun)
		}
	}
	replicated := 0
	for _, node := range graph.TopoOrder() {
		bun := node.Bundle()
		obj := core.FileObject{Ref: bun.Ref}
		if bun.Type == prov.File && bun.Name != "" {
			// Pull the data object from the source provider.
			o, err := srcProto.Fetch(bun.Name)
			if err == nil {
				obj.Path = bun.Name
				obj.Size = o.Size
			}
		}
		if err := dstProto.Commit(obj, []prov.Bundle{bun}); err != nil {
			return err
		}
		replicated++
	}
	fmt.Fprintf(w, "replicated %d provenance nodes to the strict-consistency provider\n", replicated)

	// Verify the replica: data-provenance coupling and full ancestry.
	for _, path := range []string{"mnt/asm/contigs.fa", "mnt/asm/genes.gff"} {
		rep, err := core.CheckCoupling(dst, core.BackendSDB, path)
		if err != nil {
			return err
		}
		ref, _ := col.FileRef(path)
		walk, err := core.CheckCausalOrdering(dst, core.BackendSDB, ref)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-22s coupled=%v ancestry=%d nodes dangling=%d\n",
			path, rep.Coupled, walk.Visited, len(walk.Dangling))
	}
	fmt.Fprintf(w, "\nsource bill: $%.4f   replica bill: $%.4f\n",
		srcEnv.Meter().Usage().Cost(0), dstEnv.Meter().Usage().Cost(0))
	return nil
}
