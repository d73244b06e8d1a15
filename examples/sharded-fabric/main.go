// Sharded fabric: commit the same burst of provenance-heavy transactions to
// three fabrics and read every object's versions back:
//
//   - the paper's K=1 topology (one SQS WAL queue, one SimpleDB provenance
//     domain);
//   - a K=4 fabric under chaos: transactions hash to their home WAL shard,
//     items to their home domain, and every service request faults with
//     probability 5% (half the mutating faults ambiguous — applied but
//     reported failed), which the resilient client layer absorbs with
//     backoff, retry budgets and idempotent retries;
//   - a K=1 fabric closed in an autoscale loop: a controller samples the
//     meter's per-endpoint op counters and the WAL queue backlogs and
//     drives dep.Reshard on its own. The burst's backlog grows it, and once
//     the queues drain and the cooldown passes it shrinks back. Every
//     decision is persisted next to ctl/fabric first, so a controller
//     killed mid-decision resumes — or declines to re-trigger — exactly
//     once.
//
// The read-back digests must be byte-identical, and the resharded fabric
// must audit clean. Everything runs on the manual clock, so the demo steps
// the controller by hand, and the commits run one at a time: concurrent
// clients would add no speed, because the manual clock sums their sleeps.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"passcloud/internal/autoscale"
	"passcloud/internal/core"
	"passcloud/internal/fabric"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
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

// commit is one transaction of the burst.
type commit struct {
	obj     core.FileObject
	bundles []prov.Bundle
}

// run commits one burst to each fabric; the seed decides every byte it
// writes to w.
func run(w io.Writer, seed int64) error {
	burst, refs := newBurst(seed, 120)

	cfg := sim.Config{Seed: seed, Consistency: sim.Strict}
	static, err := fabric.New(fabric.Config{Sim: cfg})
	if err != nil {
		return err
	}
	chaos, err := fabric.New(fabric.Config{
		Sim:      cfg,
		Topology: core.Topology{WALShards: 4, DBShards: 4},
		Workers:  8,
		Faults:   sim.UniformPlan(0.05, 0.5),
	})
	if err != nil {
		return err
	}
	// The burst's client is closed-loop, so the windowed op rate never
	// exceeds what the fabric serves; the saturation signal that survives
	// is the WAL backlog. The cooldown is stretched past the burst so it
	// produces exactly one grow instead of climbing a shard per sample.
	scaled, err := fabric.New(fabric.Config{Sim: cfg, Autoscale: &autoscale.Config{
		MaxK:                4,
		GrowBacklogPerShard: 200,
		Cooldown:            10 * time.Minute,
	}})
	if err != nil {
		return err
	}

	digests := make([]string, 3)
	for i, f := range []*fabric.Fabric{static, chaos} {
		if err := commitAll(f, burst); err != nil {
			return err
		}
		if digests[i], err = digest(f, refs); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "K=1 static fabric:       digest %s…\n", digests[0][:16])
	fmt.Fprintf(w, "K=4 under 5%% faults:     digest %s…\n\n", digests[1][:16])

	ctl := scaled.Ctl
	step := func(phase string) error {
		if err := ctl.Step(context.Background()); err != nil {
			return fmt.Errorf("%s: %w", phase, err)
		}
		s := ctl.Status()
		fmt.Fprintf(w, "  %-16s K=%d  backlog %4d  grows %d shrinks %d holds %d",
			phase, s.K, s.MaxBacklog, s.Grows, s.Shrinks, s.Holds)
		if r := s.Record; r != nil {
			fmt.Fprintf(w, "  [record #%d %s %d->%d]", r.Seq, r.State, r.FromK, r.TargetK)
		}
		fmt.Fprintln(w)
		return nil
	}
	fmt.Fprintln(w, "autoscaled fabric:")
	// The first sample is the baseline window; the burst then piles its
	// WAL messages onto the one queue, and the backlog trips the grow.
	if err := step("baseline -> hold"); err != nil {
		return err
	}
	if err := commitAll(scaled, burst); err != nil {
		return err
	}
	if err := step("burst -> grow"); err != nil {
		return err
	}
	// Quiet: Settle does the commit daemons' work and drains the queues,
	// then the idle fabric rides out the cooldown. The windowed rate decays to zero and the
	// controller folds the fabric back to MinK.
	if err := scaled.P3.Settle(); err != nil {
		return err
	}
	scaled.Env.Clock().Advance(20 * time.Minute)
	if err := step("quiet -> shrink"); err != nil {
		return err
	}
	if digests[2], err = digest(scaled, refs); err != nil {
		return err
	}
	fmt.Fprintf(w, "  digest %s…\n\n", digests[2][:16])

	if digests[0] != digests[1] || digests[0] != digests[2] {
		return fmt.Errorf("provenance diverged between fabrics: %v", digests)
	}
	fmt.Fprintln(w, "provenance digests identical across the three fabrics")
	mis, dup, err := core.AuditFabric(scaled.Dep)
	if err != nil {
		return err
	}
	if mis != 0 || dup != 0 {
		return fmt.Errorf("audit: misplaced=%d duplicates=%d", mis, dup)
	}
	fmt.Fprintf(w, "autoscaled fabric audited clean after the grow/shrink cycle: %d items, K=%d, epoch %d\n",
		scaled.Dep.DB.ItemCount(), scaled.Dep.Topo.DBShards, scaled.Dep.DB.Directory().Epoch())
	return nil
}

// newBurst builds n transactions, each a file re-read and rewritten over
// several passes: the collector versions the file each cycle, so one commit
// carries a whole version chain — the provenance-heavy shape where the
// domain write gate, not the object store, bounds throughput. Each bundle
// is padded so a transaction spans several WAL chunks. The uuids come from
// their own stream, so every fabric commits the same bytes.
func newBurst(seed int64, n int) ([]commit, []uuid.UUID) {
	col := pass.New(sim.NewRand(seed), nil)
	b := trace.NewBuilder()
	var paths []string
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("mnt/data/part-%04d", i)
		pid := b.Spawn(0, "/usr/bin/ingest", "ingest", path)
		b.Write(pid, path, 4096)
		for v := 0; v < 12; v++ {
			b.Read(pid, path, 4096).Write(pid, path, 4096)
		}
		b.Close(pid, path)
		paths = append(paths, path)
	}
	for _, ev := range b.Trace().Events {
		col.Apply(ev)
	}
	pad := strings.Repeat("e", 900)
	var burst []commit
	var refs []uuid.UUID
	for _, path := range paths {
		ref, _ := col.FileRef(path)
		bundles := col.PendingFor(path)
		for i := range bundles {
			bundles[i].Records = append(bundles[i].Records, prov.Record{Attr: prov.AttrEnv, Value: pad})
			col.MarkRecorded(bundles[i].Ref)
		}
		burst = append(burst, commit{obj: core.FileObject{Path: path, Size: 4096, Ref: ref}, bundles: bundles})
		refs = append(refs, ref.UUID)
	}
	return burst, refs
}

// commitAll commits the burst through f's P3, one transaction at a time.
func commitAll(f *fabric.Fabric, burst []commit) error {
	for _, c := range burst {
		if err := f.P3.Commit(c.obj, c.bundles); err != nil {
			return err
		}
	}
	return nil
}

// digest settles f, reads every object's versions back through the query
// API — one Versions spec covering all uuids, each routed to its home shard
// — and hashes them. It must not depend on K.
func digest(f *fabric.Fabric, refs []uuid.UUID) (string, error) {
	if err := f.P3.Settle(); err != nil {
		return "", err
	}
	bundles, err := query.New(f.Dep, core.BackendSDB).CollectBundles(query.Spec{
		Roots:     query.Roots{UUIDs: refs},
		Direction: query.Versions,
	})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(prov.EncodeBundles(bundles))
	return hex.EncodeToString(sum[:]), nil
}
