package core

import (
	"testing"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/pass"
	"passcloud/internal/sim"
	"passcloud/internal/trace"
)

// merkleDeployment runs the canonical pipeline through the given protocol,
// stamping each commit with its closure digest the way the client layer
// does.
func merkleDeployment(t *testing.T, mk func(*Deployment) Protocol) (*Deployment, Protocol, *pass.Collector) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Consistency = sim.Strict
	env := sim.NewEnv(cfg)
	dep := NewDeployment(env)
	p := mk(dep)
	col := pass.New(env.Rand(), nil)

	b := trace.NewBuilder()
	p1 := b.Spawn(0, "/bin/stage1", "stage1")
	b.Read(p1, "raw", 4096).Write(p1, "mnt/mid", 2048).Close(p1, "mnt/mid")
	p2 := b.Spawn(0, "/bin/stage2", "stage2")
	b.Read(p2, "mnt/mid", 2048).Write(p2, "mnt/out", 1024).Close(p2, "mnt/out")
	for _, ev := range b.Trace().Events {
		if err := col.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range []string{"mnt/mid", "mnt/out"} {
		ref, _ := col.FileRef(path)
		obj := FileObject{
			Path:   path,
			Size:   col.FileSize(path),
			Ref:    ref,
			Digest: ClosureRoot(col.FullClosureFor(path)).String(),
		}
		bundles := col.PendingFor(path)
		for _, bu := range bundles {
			col.MarkRecorded(bu.Ref)
		}
		if err := p.Commit(obj, bundles); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Settle(); err != nil {
		t.Fatal(err)
	}
	return dep, p, col
}

func TestMerkleAncestryVerifies(t *testing.T) {
	for _, tc := range protocolsUnderTest() {
		t.Run(tc.name, func(t *testing.T) {
			dep, p, _ := merkleDeployment(t, tc.mk)
			rep, err := VerifyAncestry(dep, BackendOf(p), "mnt/out")
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Verified {
				t.Fatalf("fresh commit failed ancestry verification: %+v", rep)
			}
			if rep.Leaves < 5 {
				t.Fatalf("closure too small: %d leaves", rep.Leaves)
			}
		})
	}
}

func TestMerkleDetectsTamperedAncestor(t *testing.T) {
	dep, _, col := merkleDeployment(t, func(d *Deployment) Protocol { return NewP2(d, Options{}) })
	// Tamper: append a forged attribute to the mid file's recorded item.
	midRef, _ := col.FileRef("mnt/mid")
	if err := dep.DB.BatchPutAttributes([]sdb.PutRequest{{
		Item:  midRef.String(),
		Attrs: []sdb.Attr{{Name: "forged", Value: "evil"}},
	}}); err != nil {
		t.Fatal(err)
	}
	dep.Settle()
	rep, err := VerifyAncestry(dep, BackendSDB, "mnt/out")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verified {
		t.Fatal("tampered ancestor passed Merkle verification")
	}
}

func TestMerkleDetectsMissingAncestor(t *testing.T) {
	dep, p, col := merkleDeployment(t, func(d *Deployment) Protocol { return NewP2(d, Options{}) })
	_ = p
	// Delete the stage1 process item entirely: the reader's closure walk
	// errors (dangling) — which is itself a detection.
	midRef, _ := col.FileRef("mnt/mid")
	bundles, err := ReadProvenance(dep, BackendSDB, midRef.UUID)
	if err != nil {
		t.Fatal(err)
	}
	var procRef string
	for _, b := range bundles {
		for _, r := range b.Records {
			if r.IsXref() {
				procRef = r.Xref.String()
			}
		}
	}
	if procRef == "" {
		t.Fatal("no process ancestor found")
	}
	if err := dep.DB.Shard(dep.DB.ShardForItem(procRef)).BatchDeleteAttributes([]string{procRef}); err != nil {
		t.Fatal(err)
	}
	dep.Settle()
	if rep, err := VerifyAncestry(dep, BackendSDB, "mnt/out"); err == nil && rep.Verified {
		t.Fatalf("missing ancestor passed verification: %+v", rep)
	}
}

func TestDigestTravelsThroughP3WAL(t *testing.T) {
	dep, p, _ := merkleDeployment(t, func(d *Deployment) Protocol { return NewP3(d, Options{}) })
	_ = p
	meta, err := dep.Store.Head(DataKey("mnt/out"))
	if err != nil {
		t.Fatal(err)
	}
	if len(meta[MetaMerkle]) != 64 {
		t.Fatalf("COPY did not carry the ancestry digest: %q", meta[MetaMerkle])
	}
}
