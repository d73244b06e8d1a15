package autoscale

import (
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"passcloud/internal/core"
)

// FuzzDecisionRecord: the decision record is what a restarted controller
// trusts to say which reshard to finish, so decodeRecord is a trust
// boundary. It never panics, allocates at most 64·len(input)+64 KiB
// (measured as TestDecodeBoundsRecordCount measures the wire decoder's), and
// either fails or returns a valid record that persistRecord's encoding
// decodes back exactly. The seed corpus is the records a grow writes (the
// closed one, and the open one it persisted first) and corruptRecords.
func FuzzDecisionRecord(f *testing.F) {
	dep, ctl := newRig(f, testCfg)
	tick(f, dep, ctl, 0)
	addOps(dep, dep.WAL.Shard(0).Name(), 2000)
	tick(f, dep, ctl, 10*time.Second) // grows to K=4
	dep.Env.Clock().Advance(10 * time.Second)
	o, err := dep.Store.Get(RecordKey)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(o.Data)
	open, err := decodeRecord(o.Data)
	if err != nil || open.State != RecordDone {
		f.Fatalf("the grow's record %s: %+v, %v", o.Data, open, err)
	}
	open.State, open.CopiedItems, open.CopyBatches, open.GCItems, open.GCBatches = RecordDecided, 0, 0, 0, 0
	b, err := json.Marshal(open)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	for _, body := range append(corruptRecords, `{}`, `null`, `{"seq":1,"target_k":2,"state":"done"`, `{"seq":1e99,"target_k":2,"state":"done"}`) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := decodeRecord(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(data))+64<<10; got > limit {
			t.Fatalf("decodeRecord of a %d-byte record allocated %d bytes, over %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		if (r.State != RecordDecided && r.State != RecordDone) || r.TargetK < 1 || r.TargetK > core.MaxShards {
			t.Fatalf("decodeRecord(%q) accepted an invalid record %+v", data, r)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := decodeRecord(b); err != nil || again != r {
			t.Fatalf("a record decoded back as %+v (err=%v) after encoding %+v", again, err, r)
		}
	})
}
