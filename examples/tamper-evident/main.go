// tamper-evident demonstrates the transparency log from §4's threat model:
// a regulated pipeline commits its provenance through P3 with the Merkle
// log sequencer attached, an auditor witnesses a signed tree head, and the
// fabric operator later rewrites one result behind SimpleDB's back. The
// log makes the rewrite evident: every commit still carries a verifying
// inclusion proof, the witnessed head still proves consistency, and the
// auditor's replay pins the exact item whose served attributes no longer
// match what was sequenced at commit time.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/core"
	"passcloud/internal/fabric"
	"passcloud/internal/pasfs"
	"passcloud/internal/pass"
	"passcloud/internal/sim"
	"passcloud/internal/trace"
	"passcloud/internal/translog"
	"passcloud/internal/uuid"
)

func main() {
	if err := run(os.Stdout, 42); err != nil {
		log.Fatal(err)
	}
}

// run commits, witnesses, tampers and audits on the manual clock. The seed
// decides every byte it writes to w except the log root, because a leaf
// still hashes the simulated time it was sequenced at.
func run(w io.Writer, seed int64) error {
	// The sequencer rides the commit bus: every transaction P3 commits
	// becomes a leaf before the client even learns the commit succeeded.
	f, err := fabric.New(fabric.Config{Sim: sim.Config{Seed: seed}, Translog: true})
	if err != nil {
		return err
	}
	defer f.Close()
	dep, tlog := f.Dep, f.Log
	col := pass.New(f.Env.Rand(), nil)
	fs := pasfs.New(f.Env, f.P3, col, pasfs.Config{Collect: true})

	// A small clinical-style pipeline: raw assay files reduced into
	// per-sample results, then a summary over all of them.
	b := trace.NewBuilder()
	for i := 0; i < 6; i++ {
		reduce := b.Spawn(0, "/usr/bin/assay", "assay", fmt.Sprintf("sample-%d", i))
		b.Read(reduce, fmt.Sprintf("raw/sample-%d.dat", i), 4<<20)
		out := fmt.Sprintf("mnt/results/sample-%d.csv", i)
		b.WriteFile(reduce, out, 1<<20).Exit(reduce)
	}
	sum := b.Spawn(0, "/usr/bin/summarize", "summarize")
	for i := 0; i < 6; i++ {
		b.Read(sum, fmt.Sprintf("mnt/results/sample-%d.csv", i), 1<<20)
	}
	b.WriteFile(sum, "mnt/results/summary.csv", 1<<18).Exit(sum)

	if err := fs.Run(b.Trace()); err != nil {
		return err
	}
	if err := f.P3.Settle(); err != nil {
		return err
	}
	dep.Settle()

	// The auditor checkpoints and witnesses the signed head: this is the
	// commitment the operator can never take back.
	witness, err := tlog.Checkpoint()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "witnessed signed head: %d leaves, root %s…\n", witness.TreeSize, witness.Root[:16])

	// Every committed transaction proves its inclusion under that head.
	for _, lf := range tlog.Leaves() {
		txn, err := uuid.Parse(lf.Txn)
		if err != nil {
			return err
		}
		if p, err := tlog.ProveInclusion(txn); err != nil || !p.Verify() {
			return fmt.Errorf("leaf %d: inclusion proof failed (%v)", lf.Index, err)
		}
	}
	fmt.Fprintf(w, "all %d inclusion proofs verify\n\n", witness.TreeSize)

	rep, err := translog.Audit(dep, tlog, translog.AuditOptions{Witness: &witness})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "before the rewrite:", rep)

	// Months later the operator quietly rewrites sample-3's result row
	// directly in the provenance fabric — no commit, no new version, just
	// different bytes behind the same item name.
	o, err := f.P3.Fetch("mnt/results/sample-3.csv")
	if err != nil {
		return err
	}
	victim := o.Metadata[core.MetaUUID] + "_" + o.Metadata[core.MetaVersion]
	dom := dep.DB.Shard(dep.DB.ShardForItem(victim))
	it, err := dom.GetAttributes(victim)
	if err != nil {
		return err
	}
	attrs := append([]sdb.Attr(nil), it.Attrs...)
	attrs[0].Value += "-doctored"
	if err := dom.PutAttributes(sdb.PutRequest{Item: victim, Attrs: attrs, Replace: true}); err != nil {
		return err
	}
	fmt.Fprintf(w, "\noperator rewrites %s behind the fabric's back...\n\n", victim)

	// The next audit replays the log against the fabric. The log's own
	// proofs still verify — the history was never touched — but the served
	// item no longer matches the digest sequenced at commit time.
	rep, err = translog.Audit(dep, tlog, translog.AuditOptions{Witness: &witness})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "after the rewrite:", rep)
	for _, d := range rep.Divergences {
		fmt.Fprintf(w, "  %s: item %s (committed by txn %s)\n", d.Kind, d.Item, d.Txn)
	}
	if len(rep.Divergences) != 1 || rep.Divergences[0].Item != victim {
		return errors.New("the audit did not pin the rewritten item")
	}
	fmt.Fprintln(w, "\nthe rewrite is tamper-evident: the fabric can lie about data, not about history")
	return nil
}
