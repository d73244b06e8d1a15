package oracle

import (
	"fmt"
	"strconv"
	"testing"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// committed is a K=2 deployment on the manual clock after a P3 committed
// four transactions, each a process and three versions of a file it wrote,
// and what that expects.
func committed(t *testing.T) (*core.Deployment, Expect) {
	t.Helper()
	dep := core.NewShardedDeployment(sim.NewEnv(sim.Config{Seed: 3}), core.Topology{WALShards: 2, DBShards: 2})
	p := core.NewP3(dep, core.Options{})
	want := Expect{Backend: core.BackendSDB, P3: p}
	rnd := sim.NewRand(3)
	for i := 0; i < 4; i++ {
		proc := prov.Ref{UUID: uuid.New(rnd), Version: 1}
		file, path := uuid.New(rnd), fmt.Sprintf("mnt/f%d", i)
		bundles := []prov.Bundle{{Ref: proc, Type: prov.Process, Name: "gen", Records: []prov.Record{{Attr: prov.AttrType, Value: "proc"}}}}
		for v := 1; v <= 3; v++ {
			recs := []prov.Record{{Attr: prov.AttrName, Value: path}, {Attr: prov.AttrInput, Xref: proc}}
			if v > 1 {
				recs = append(recs, prov.Record{Attr: prov.AttrPrevVer, Xref: prov.Ref{UUID: file, Version: v - 1}})
			}
			bundles = append(bundles, prov.Bundle{Ref: prov.Ref{UUID: file, Version: v}, Type: prov.File, Name: path, Records: recs})
		}
		obj := core.FileObject{Path: path, Size: 512, Ref: bundles[3].Ref}
		if err := p.Commit(obj, bundles); err != nil {
			t.Fatal(err)
		}
		reqs, err := core.ItemsForBundles(dep.Store, bundles)
		if err != nil {
			t.Fatal(err)
		}
		want.Items += len(bundles)
		want.Objects = append(want.Objects, obj)
		want.Attrs = append(want.Attrs, reqs[2])
	}
	if err := p.Settle(); err != nil {
		t.Fatal(err)
	}
	return dep, want
}

// TestCheckNamesEachViolation breaks one thing at a time; the report must
// name exactly that violation, and a clean deployment none.
func TestCheckNamesEachViolation(t *testing.T) {
	// home is the shard an item lives on.
	home := func(dep *core.Deployment, item string) *sdb.Domain { return dep.DB.Shard(dep.DB.ShardForItem(item)) }
	for _, c := range []struct {
		name   string
		want   string // the property; "" for none
		break_ func(*core.Deployment, *Expect) error
	}{
		{"clean", "", func(*core.Deployment, *Expect) error { return nil }},
		{"xref target deleted", "causal-order", func(dep *core.Deployment, want *Expect) error {
			want.Items-- // the count expects the deletion: only the dangling reference is left to find
			v1 := prov.Ref{UUID: want.Objects[0].Ref.UUID, Version: 1}.String()
			return home(dep, v1).BatchDeleteAttributes([]string{v1})
		}},
		{"data linked to an older version", "coupling", func(dep *core.Deployment, want *Expect) error {
			o := want.Objects[1]
			return dep.Store.Copy(core.DataKey(o.Path), core.DataKey(o.Path), map[string]string{
				core.MetaUUID: o.Ref.UUID.String(), core.MetaVersion: strconv.Itoa(o.Ref.Version - 1)})
		}},
		{"tmp object left", "tmp", func(dep *core.Deployment, _ *Expect) error {
			return dep.Store.Put(core.TmpPrefix+"orphan", []byte("x"), nil)
		}},
		{"WAL packet left", "wal", func(dep *core.Deployment, _ *Expect) error {
			_, err := dep.WAL.Shard(0).SendMessage([]byte("x"))
			return err
		}},
		{"duplicate on a second shard", "audit", func(dep *core.Deployment, want *Expect) error {
			req := want.Attrs[0]
			return dep.DB.Shard(1 - dep.DB.ShardForItem(req.Item)).PutAttributes(req)
		}},
		{"sampled attribute corrupted", "attrs", func(dep *core.Deployment, want *Expect) error {
			req := want.Attrs[1]
			attrs := append([]sdb.Attr(nil), req.Attrs...)
			attrs[0].Value += "-rewritten"
			return home(dep, req.Item).PutAttributes(sdb.PutRequest{Item: req.Item, Attrs: attrs, Replace: true})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dep, want := committed(t)
			if err := c.break_(dep, &want); err != nil {
				t.Fatal(err)
			}
			rep, err := Check(dep, want)
			if err != nil {
				t.Fatal(err)
			}
			if c.want == "" && !rep.Clean() || c.want != "" && (len(rep.Violations) != 1 || rep.Violations[0].Property != c.want) {
				t.Errorf("report %v, want exactly one %q violation", rep, c.want)
			}
		})
	}
}
