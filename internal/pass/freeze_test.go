package pass

import (
	"fmt"
	"reflect"
	"testing"

	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/trace"
)

// uploader plays the storage layer: it takes PendingFor at every close,
// marks it recorded, and checks that the closure the writer digests is
// exactly what was uploaded — every node present, with the records it was
// uploaded with. A recorded version that later gains an edge fails here.
type uploader struct {
	t        *testing.T
	c        *Collector
	uploaded map[prov.Ref][]prov.Record
}

func (u *uploader) close(path string) {
	u.t.Helper()
	for _, b := range u.c.PendingFor(path) {
		u.uploaded[b.Ref] = b.Records
		u.c.MarkRecorded(b.Ref)
	}
	for _, b := range u.c.FullClosureFor(path) {
		got, ok := u.uploaded[b.Ref]
		if !ok {
			u.t.Fatalf("close of %s: closure node %s was never uploaded", path, b.Ref)
		}
		if !reflect.DeepEqual(got, b.Records) {
			u.t.Fatalf("close of %s: node %s changed after upload:\nuploaded %v\nlocal    %v", path, b.Ref, got, b.Records)
		}
	}
}

// TestRecordedVersionsAreFrozen is the freeze rule's regression test: a
// process whose version was uploaded with its first output reads a second
// input and writes a second output. The read must version the process, so
// the new edge and the new input reach the cloud with the second output.
func TestRecordedVersionsAreFrozen(t *testing.T) {
	c := New(sim.NewRand(42), nil)
	u := &uploader{t: t, c: c, uploaded: make(map[prov.Ref][]prov.Record)}
	apply := func(ev trace.Event) {
		if err := c.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	apply(trace.Event{Kind: trace.Exec, PID: 1, Path: "/bin/p", Argv: []string{"p"}})
	apply(trace.Event{Kind: trace.Write, PID: 1, Path: "mnt/out1", Bytes: 10})
	u.close("mnt/out1")
	first, _ := c.ProcRef(1)
	apply(trace.Event{Kind: trace.Read, PID: 1, Path: "in2"})
	apply(trace.Event{Kind: trace.Write, PID: 1, Path: "mnt/out2", Bytes: 10})
	u.close("mnt/out2")
	if now, _ := c.ProcRef(1); now == first {
		t.Fatalf("read into a recorded process version %s did not version it", first)
	}
}

// TestRecordedVersionsAreFrozenSeeded drives seeded random event streams —
// processes reading and writing a handful of files, closing them at random
// — through the same upload check.
func TestRecordedVersionsAreFrozenSeeded(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rnd := sim.NewRand(seed)
		c := New(sim.NewRand(seed), nil)
		u := &uploader{t: t, c: c, uploaded: make(map[prov.Ref][]prov.Record)}
		for pid := 1; pid <= 3; pid++ {
			c.Apply(trace.Event{Kind: trace.Exec, PID: pid, Path: "/bin/tool", Argv: []string{"tool", fmt.Sprint(pid)}})
		}
		for i := 0; i < 300; i++ {
			pid, path := 1+rnd.Intn(3), fmt.Sprintf("mnt/f%d", rnd.Intn(5))
			switch rnd.Intn(3) {
			case 0:
				c.Apply(trace.Event{Kind: trace.Read, PID: pid, Path: path})
			case 1:
				c.Apply(trace.Event{Kind: trace.Write, PID: pid, Path: path, Bytes: 1})
			default:
				if _, ok := c.FileRef(path); ok {
					u.close(path)
				}
			}
		}
		if err := c.Graph().CheckAcyclic(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
