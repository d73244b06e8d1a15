package core

import (
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"passcloud/internal/cloud/store"
	"passcloud/internal/sim"
)

// FuzzReadControl: the fabric control record is what a restarted resharder
// trusts to say which reshard to resume, so ReadControl is a trust boundary.
// With the input stored at FabricControlKey, ReadControl never panics,
// allocates at most 64·len(input)+64 KiB, and either fails or returns a
// valid record that marshals and reads back equal. The seed corpus is the
// records a 1→2 reshard leaves and persistControl writes mid-migration and
// before GC, and the corrupt records TestReadControlRejectsCorruptRecords
// stores.
func FuzzReadControl(f *testing.F) {
	cfg := sim.DefaultConfig()
	cfg.Seed, cfg.Consistency = 42, sim.Strict
	dep := NewShardedDeployment(sim.NewEnv(cfg), Topology{WALShards: 1, DBShards: 1})
	if _, err := dep.Reshard(context.Background(), Topology{WALShards: 2, DBShards: 2}); err != nil {
		f.Fatal(err)
	}
	record := func() []byte { // one ReadControl accepts
		if c, ok, err := dep.ReadControl(); !ok || err != nil {
			f.Fatalf("the fixture's record %+v: ok=%v err=%v", c, ok, err)
		}
		o, err := dep.Store.Get(FabricControlKey)
		if err != nil {
			f.Fatal(err)
		}
		return o.Data
	}
	f.Add(record())
	dep.DB.BeginMigration(4)
	for _, state := range []string{ControlMigrating, ControlGC} {
		if err := dep.persistControl(state, &Topology{WALShards: 2, DBShards: 4}); err != nil {
			f.Fatal(err)
		}
		f.Add(record())
	}
	for _, body := range []string{
		`{}`,
		`{"state":"bogus","topology":{"WALShards":2,"DBShards":2}}`,
		`{"state":"migrating","topology":{"WALShards":4,"DBShards":4}}`,
		`{"state":"stable","topology":{"WALShards":4,"DBShards":65}}`,
		`{"state":"migrating","topology":{"WALShards":4,"DBShards":4},"target":{"WALShards":0,"DBShards":2}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env := sim.NewEnv(cfg)
		d := &Deployment{Env: env, Store: store.New(env)}
		if err := d.Store.Put(FabricControlKey, data, nil); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, ok, err := d.ReadControl()
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(data))+64<<10; got > limit {
			t.Fatalf("ReadControl of a %d-byte record allocated %d bytes, over %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		if !ok || !c.valid() {
			t.Fatalf("ReadControl returned ok=%v and a record valid()=%v: %+v", ok, c.valid(), c)
		}
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Store.Put(FabricControlKey, b, nil); err != nil {
			t.Fatal(err)
		}
		again, ok, err := d.ReadControl()
		if err != nil || !ok || !reflect.DeepEqual(again, c) {
			t.Fatalf("a record read back as %+v (ok=%v, err=%v) after writing %+v", again, ok, err, c)
		}
	})
}
