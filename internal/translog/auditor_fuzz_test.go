package translog

import (
	"reflect"
	"runtime"
	"testing"
)

// FuzzLoadHeads: the auditor reads every persisted signed head back from the
// store, so each is a trust boundary. On a K=2 fabric with three checkpoints
// (three heads, each audited CLEAN), the head that which picks is replaced
// by the input. loadHeads never panics and allocates at most
// 64·len(input)+64 KiB, and unless the input decodes to the head it
// replaced, the audit fails or diverges: a corrupted, moved or forged head
// never audits CLEAN. The corpus is the three real heads, each in every
// head's place, and the latest head and checkpoint objects.
func FuzzLoadHeads(f *testing.F) {
	env, dep, p3, l := newFabric(f, 61, 2)
	for i := range 3 {
		commitAll(f, p3, makeTxns(int64(61+i), 3, 2))
		if _, err := l.Checkpoint(); err != nil {
			f.Fatal(err)
		}
	}
	settleReads(env)
	keys, _, err := dep.Store.ListAll(DefaultPrefix + headsDir)
	if err != nil {
		f.Fatal(err)
	}
	want, err := loadHeads(l)
	if err != nil || len(keys) != 3 || len(want) != 3 {
		f.Fatalf("fixture: %d head keys, %d heads read (%v), want 3", len(keys), len(want), err)
	}
	if rep, err := Audit(dep, l, AuditOptions{}); err != nil || !rep.Clean() || rep.HeadsVerified != 3 {
		f.Fatalf("fixture audit: %v err %v, want CLEAN over 3 heads", rep, err)
	}
	objs := make([][]byte, len(keys))
	for i, k := range keys {
		o, err := dep.Store.Get(k)
		if err != nil {
			f.Fatal(err)
		}
		objs[i] = o.Data
	}
	for which := range keys {
		for _, obj := range objs {
			f.Add(uint8(which), obj)
		}
		for _, k := range []string{latestHeadKey, checkpointKey} {
			o, err := dep.Store.Get(DefaultPrefix + k)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(which), o.Data)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		i := int(which) % len(keys)
		put := func(b []byte) {
			if err := dep.Store.Put(keys[i], b, nil); err != nil {
				t.Fatal(err)
			}
			settleReads(env)
		}
		put(data)
		defer put(objs[i])
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		heads, err := loadHeads(l)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(data))+64<<10; got > limit {
			t.Fatalf("loadHeads with a %d-byte head allocated %d bytes, over %d", len(data), got, limit)
		}
		rep, aerr := Audit(dep, l, AuditOptions{})
		if aerr == nil && rep.Clean() && (err != nil || !reflect.DeepEqual(heads, want)) {
			t.Fatalf("the audit is CLEAN over heads %+v (read error %v), the log signed %+v", heads, err, want)
		}
	})
}
