package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/par"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/trace"
)

// newDep builds a deployment on a manual clock with the given consistency.
func newDep(t *testing.T, consistency sim.Consistency) *Deployment {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Consistency = consistency
	return NewDeployment(sim.NewEnv(cfg))
}

// daemonCrashPoints are P3's group-commit crash points, in protocol order.
var daemonCrashPoints = []sim.CrashPoint{CrashBeforeDB, CrashAfterDB, CrashAfterCopy}

// onePipeline returns collector output for raw -> stage1 -> mid -> stage2 -> out.
func onePipeline(t *testing.T, seed int64) (col *pass.Collector, mid, out FileObject, midB, outB []prov.Bundle) {
	t.Helper()
	c, midBundles, midObj, outBundles, outObj := pipelineBundles(seed)
	return c, midObj, outObj, midBundles, outBundles
}

func commitAll(t *testing.T, p Protocol, objs []FileObject, bundles [][]prov.Bundle) {
	t.Helper()
	for i := range objs {
		if err := p.Commit(objs[i], bundles[i]); err != nil {
			t.Fatalf("%s commit %s: %v", p.Name(), objs[i].Path, err)
		}
	}
	if err := p.Settle(); err != nil {
		t.Fatalf("%s settle: %v", p.Name(), err)
	}
}

func TestS3fsBaselineStoresDataOnly(t *testing.T) {
	dep := newDep(t, sim.Strict)
	s := NewS3fs(dep, Options{})
	_, _, out, _, outB := onePipeline(t, 1)
	commitAll(t, s, []FileObject{out}, [][]prov.Bundle{outB})
	o, err := s.Fetch(out.Path)
	if err != nil {
		t.Fatal(err)
	}
	if o.Size != out.Size {
		t.Fatalf("size = %d, want %d", o.Size, out.Size)
	}
	if o.Metadata[MetaUUID] != "" {
		t.Fatal("baseline wrote provenance metadata")
	}
	if keys, _, _ := dep.Store.ListAll(ProvPrefix); len(keys) != 0 {
		t.Fatalf("baseline created provenance objects: %v", keys)
	}
	if dep.DB.ItemCount() != 0 {
		t.Fatal("baseline wrote database items")
	}
}

// runProtocolPipeline commits the two-stage pipeline on a fresh deployment
// and returns everything needed for assertions.
func runProtocolPipeline(t *testing.T, mk func(*Deployment) Protocol) (*Deployment, Protocol, FileObject, FileObject) {
	t.Helper()
	dep := newDep(t, sim.Eventual)
	p := mk(dep)
	_, mid, out, midB, outB := onePipeline(t, 7)
	commitAll(t, p, []FileObject{mid, out}, [][]prov.Bundle{midB, outB})
	dep.Settle()
	return dep, p, mid, out
}

func protocolsUnderTest() []struct {
	name string
	mk   func(*Deployment) Protocol
} {
	return []struct {
		name string
		mk   func(*Deployment) Protocol
	}{
		{"P1", func(d *Deployment) Protocol { return NewP1(d, Options{}) }},
		{"P2", func(d *Deployment) Protocol { return NewP2(d, Options{}) }},
		{"P3", func(d *Deployment) Protocol { return NewP3(d, Options{}) }},
	}
}

func TestProtocolsStoreDataWithProvenanceLink(t *testing.T) {
	for _, tc := range protocolsUnderTest() {
		t.Run(tc.name, func(t *testing.T) {
			dep, p, _, out := runProtocolPipeline(t, tc.mk)
			o, err := p.Fetch(out.Path)
			if err != nil {
				t.Fatal(err)
			}
			if o.Size != out.Size {
				t.Fatalf("size = %d, want %d", o.Size, out.Size)
			}
			ref, err := linkedRef(o.Metadata)
			if err != nil {
				t.Fatal(err)
			}
			if ref != out.Ref {
				t.Fatalf("link = %v, want %v", ref, out.Ref)
			}
			rep, err := CheckCoupling(dep, BackendOf(p), out.Path)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Coupled {
				t.Fatalf("fresh commit not coupled: %+v", rep)
			}
		})
	}
}

func TestProtocolsRecordFullAncestry(t *testing.T) {
	for _, tc := range protocolsUnderTest() {
		t.Run(tc.name, func(t *testing.T) {
			dep, p, _, out := runProtocolPipeline(t, tc.mk)
			walk, err := CheckCausalOrdering(dep, BackendOf(p), out.Ref)
			if err != nil {
				t.Fatal(err)
			}
			if !walk.Ordered() {
				t.Fatalf("dangling ancestors: %v", walk.Dangling)
			}
			// The walk must reach the whole pipeline: out, stage2, mid,
			// stage1, raw (plus any prev-version nodes).
			if walk.Visited < 5 {
				t.Fatalf("visited %d nodes, want >= 5", walk.Visited)
			}
		})
	}
}

func TestProtocolsProvenanceSurvivesDelete(t *testing.T) {
	for _, tc := range protocolsUnderTest() {
		t.Run(tc.name, func(t *testing.T) {
			dep, p, _, out := runProtocolPipeline(t, tc.mk)
			ok, err := CheckPersistence(dep, BackendOf(p), p, out.Path, out.Ref)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("provenance lost after data deletion")
			}
			if _, err := p.Fetch(out.Path); err == nil {
				t.Fatal("data still fetchable after delete")
			}
		})
	}
}

func TestP1AppendsAcrossVersions(t *testing.T) {
	dep := newDep(t, sim.Strict)
	p := NewP1(dep, Options{})
	col := pass.New(sim.NewRand(5), nil)
	tb := trace.NewBuilder()
	pid := tb.Spawn(0, "/bin/gen", "gen")
	tb.Write(pid, "mnt/f", 100).Close(pid, "mnt/f")
	for _, ev := range tb.Trace().Events {
		col.Apply(ev)
	}
	ref1, _ := col.FileRef("mnt/f")
	b1 := col.PendingFor("mnt/f")
	for _, b := range b1 {
		col.MarkRecorded(b.Ref)
	}
	if err := p.Commit(FileObject{Path: "mnt/f", Size: 100, Ref: ref1}, b1); err != nil {
		t.Fatal(err)
	}
	// Second version.
	col.Apply(trace.Event{Kind: trace.Read, PID: pid, Path: "mnt/f"})
	col.Apply(trace.Event{Kind: trace.Write, PID: pid, Path: "mnt/f", Bytes: 50})
	ref2, _ := col.FileRef("mnt/f")
	b2 := col.PendingFor("mnt/f")
	if err := p.Commit(FileObject{Path: "mnt/f", Size: 150, Ref: ref2}, b2); err != nil {
		t.Fatal(err)
	}
	bundles, err := ReadProvenance(dep, BackendS3, ref2.UUID)
	if err != nil {
		t.Fatal(err)
	}
	versions := make(map[int]bool)
	for _, b := range bundles {
		if b.Ref.UUID == ref2.UUID {
			versions[b.Ref.Version] = true
		}
	}
	if !versions[1] || !versions[2] {
		t.Fatalf("appended object missing versions: %v", versions)
	}
	// The append path must have issued a GET of the existing object.
	if got := dep.Env.Meter().Usage().OpsByKind["s3.GET"]; got == 0 {
		t.Fatal("P1 append did not GET the existing provenance object")
	}
}

func TestP1ProcessProvenanceHasNoPrimaryObject(t *testing.T) {
	dep, p, _, out := runProtocolPipeline(t, func(d *Deployment) Protocol { return NewP1(d, Options{}) })
	bundles, err := ReadProvenance(dep, BackendS3, out.Ref.UUID)
	if err != nil {
		t.Fatal(err)
	}
	// Find the stage2 process uuid via the file's input records.
	var procRef prov.Ref
	for _, b := range bundles {
		for _, r := range b.Records {
			if r.Attr == prov.AttrInput && r.IsXref() {
				procRef = r.Xref
			}
		}
	}
	if procRef.IsZero() {
		t.Fatal("no process input recorded")
	}
	if _, err := ReadProvenance(dep, BackendS3, procRef.UUID); err != nil {
		t.Fatalf("process provenance object missing: %v", err)
	}
	_ = p
}

func TestP2OneItemPerVersion(t *testing.T) {
	dep, _, mid, out := runProtocolPipeline(t, func(d *Deployment) Protocol { return NewP2(d, Options{}) })
	for _, ref := range []prov.Ref{mid.Ref, out.Ref} {
		it, err := dep.DB.GetAttributes(ref.String())
		if err != nil {
			t.Fatalf("item %s: %v", ref, err)
		}
		var hasName, hasType bool
		for _, a := range it.Attrs {
			switch a.Name {
			case prov.AttrName:
				hasName = true
			case prov.AttrType:
				hasType = true
			}
		}
		if !hasName || !hasType {
			t.Fatalf("item %s missing name/type: %v", ref, it.Attrs)
		}
	}
}

func TestP2SpillsLargeValues(t *testing.T) {
	dep := newDep(t, sim.Strict)
	p := NewP2(dep, Options{})
	big := strings.Repeat("E", sdb.MaxValueLen*3)
	ref := prov.Ref{UUID: newUUID(dep), Version: 1}
	bundle := prov.Bundle{
		Ref: ref, Type: prov.Process, Name: "bigenv",
		Records: []prov.Record{
			{Attr: prov.AttrType, Value: "proc"},
			{Attr: prov.AttrEnv, Value: big},
		},
	}
	if err := p.Commit(FileObject{Path: "mnt/f", Size: 10, Ref: ref}, []prov.Bundle{bundle}); err != nil {
		t.Fatal(err)
	}
	it, err := dep.DB.GetAttributes(ref.String())
	if err != nil {
		t.Fatal(err)
	}
	var envVal string
	for _, a := range it.Attrs {
		if a.Name == prov.AttrEnv {
			envVal = a.Value
		}
	}
	if !strings.HasPrefix(envVal, SpillMarker) {
		t.Fatalf("oversized value stored inline (%d bytes)", len(envVal))
	}
	resolved, err := ResolveValue(dep.Store, envVal)
	if err != nil {
		t.Fatal(err)
	}
	if resolved != big {
		t.Fatalf("spilled value corrupt: %d bytes", len(resolved))
	}
}

func TestP2BatchesOfAtMost25(t *testing.T) {
	dep := newDep(t, sim.Strict)
	p := NewP2(dep, Options{})
	// 60 bundles -> 3 batch calls (25+25+10).
	var bundles []prov.Bundle
	for i := 0; i < 60; i++ {
		bundles = append(bundles, prov.Bundle{
			Ref: prov.Ref{UUID: newUUID(dep), Version: 1}, Type: prov.Process, Name: fmt.Sprintf("p%d", i),
			Records: []prov.Record{{Attr: prov.AttrType, Value: "proc"}},
		})
	}
	obj := FileObject{Path: "mnt/f", Size: 10, Ref: bundles[0].Ref}
	if err := p.Commit(obj, bundles); err != nil {
		t.Fatal(err)
	}
	if got := dep.Env.Meter().Usage().OpsByKind["sdb.BatchPutAttributes"]; got != 3 {
		t.Fatalf("batch calls = %d, want 3", got)
	}
	if dep.DB.ItemCount() != 60 {
		t.Fatalf("items = %d, want 60", dep.DB.ItemCount())
	}
}

func newUUID(dep *Deployment) [16]byte {
	return [16]byte(uuidNew(dep))
}

func TestP3LogThenCommit(t *testing.T) {
	dep := newDep(t, sim.Eventual)
	p := NewP3(dep, Options{})
	_, mid, out, midB, outB := onePipeline(t, 9)
	if err := p.Commit(mid, midB); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(out, outB); err != nil {
		t.Fatal(err)
	}
	// Before the daemon runs: temp objects exist, final objects do not.
	if keys, _, _ := dep.Store.ListAll(TmpPrefix); len(keys) != 2 {
		t.Fatalf("temp objects = %d, want 2", len(keys))
	}
	if _, err := p.Fetch(out.Path); err == nil {
		t.Fatal("final object visible before commit daemon ran")
	}
	if err := p.Settle(); err != nil {
		t.Fatal(err)
	}
	dep.Settle()
	// After: final objects exist with linking metadata, temps and WAL gone.
	o, err := p.Fetch(out.Path)
	if err != nil {
		t.Fatal(err)
	}
	if ref, err := linkedRef(o.Metadata); err != nil || ref != out.Ref {
		t.Fatalf("link = %v err=%v", ref, err)
	}
	if keys, _, _ := dep.Store.ListAll(TmpPrefix); len(keys) != 0 {
		t.Fatalf("temp objects not cleaned: %v", keys)
	}
	if n := dep.WAL.Len(); n != 0 {
		t.Fatalf("WAL holds %d messages after settle", n)
	}
	if p.PendingTxns() != 0 {
		t.Fatal("pending transactions after settle")
	}
}

func TestP3ChunksLargeProvenance(t *testing.T) {
	dep := newDep(t, sim.Strict)
	p := NewP3(dep, Options{})
	// ~40KB of provenance -> at least 5 messages at the 8KB limit.
	var bundles []prov.Bundle
	for i := 0; i < 40; i++ {
		bundles = append(bundles, prov.Bundle{
			Ref: prov.Ref{UUID: newUUID(dep), Version: 1}, Type: prov.Process, Name: fmt.Sprintf("p%03d", i),
			Records: []prov.Record{
				{Attr: prov.AttrType, Value: "proc"},
				{Attr: prov.AttrEnv, Value: strings.Repeat("x", 900)},
			},
		})
	}
	obj := FileObject{Path: "mnt/big", Size: 1 << 20, Ref: bundles[0].Ref}
	if err := p.Commit(obj, bundles); err != nil {
		t.Fatal(err)
	}
	if msgs := dep.WAL.Len(); msgs < 5 {
		t.Fatalf("WAL messages = %d, want >= 5 for ~40KB", msgs)
	}
	// The chunks must have shipped through the batch API: fewer service
	// requests than messages, and no entry-by-entry sends at all.
	sends := dep.Env.Meter().Usage().OpsByKind["sqs.SendMessageBatch"]
	if sends == 0 || sends >= int64(dep.WAL.Len()) {
		t.Fatalf("batch sends = %d for %d messages", sends, dep.WAL.Len())
	}
	if n := dep.Env.Meter().Usage().OpsByKind["sqs.SendMessage"]; n != 0 {
		t.Fatalf("entry-by-entry sends = %d, want 0", n)
	}
	if err := p.Settle(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProvenance(dep, BackendSDB, bundles[7].Ref.UUID)
	if err != nil || len(got) != 1 {
		t.Fatalf("bundle lost across chunking: %v err=%v", got, err)
	}
}

func TestP3ToleratesDuplicateDelivery(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.DupProb = 0.5
	dep := NewDeployment(sim.NewEnv(cfg))
	p := NewP3(dep, Options{})
	_, mid, out, midB, outB := onePipeline(t, 17)
	commitAll(t, p, []FileObject{mid, out}, [][]prov.Bundle{midB, outB})
	dep.Settle()
	if err := p.Settle(); err != nil {
		t.Fatal(err)
	}
	rep, err := CheckCoupling(dep, BackendSDB, out.Path)
	if err != nil || !rep.Coupled {
		t.Fatalf("duplicates broke coupling: %+v err=%v", rep, err)
	}
}

func TestCouplingViolationDetectedP1P2(t *testing.T) {
	for _, tc := range protocolsUnderTest()[:2] { // P1, P2
		t.Run(tc.name, func(t *testing.T) {
			dep := newDep(t, sim.Eventual)
			p := tc.mk(dep)
			col := pass.New(sim.NewRand(23), nil)
			tb := trace.NewBuilder()
			pid := tb.Spawn(0, "/bin/gen", "gen")
			tb.Write(pid, "mnt/f", 100).Close(pid, "mnt/f")
			for _, ev := range tb.Trace().Events {
				col.Apply(ev)
			}
			ref1, _ := col.FileRef("mnt/f")
			b1 := col.PendingFor("mnt/f")
			for _, b := range b1 {
				col.MarkRecorded(b.Ref)
			}
			if err := p.Commit(FileObject{Path: "mnt/f", Size: 100, Ref: ref1}, b1); err != nil {
				t.Fatal(err)
			}
			dep.Settle()
			// Crash between provenance and data of version 2.
			col.Apply(trace.Event{Kind: trace.Read, PID: pid, Path: "mnt/f"})
			col.Apply(trace.Event{Kind: trace.Write, PID: pid, Path: "mnt/f", Bytes: 100})
			ref2, _ := col.FileRef("mnt/f")
			switch p.(type) {
			case *P1:
				dep.Env.InstallFaults(nil).CrashAt(CrashP1BeforeData, 0)
			case *P2:
				dep.Env.InstallFaults(nil).CrashAt(CrashP2BeforeData, 0)
			}
			err := p.Commit(FileObject{Path: "mnt/f", Size: 200, Ref: ref2}, col.PendingFor("mnt/f"))
			if !errors.Is(err, sim.ErrCrashed) {
				t.Fatalf("err = %v", err)
			}
			dep.Settle()
			rep, err := CheckCoupling(dep, BackendOf(p), "mnt/f")
			if err != nil {
				t.Fatal(err)
			}
			if rep.Coupled {
				t.Fatal("coupling violation went undetected")
			}
			// And the verified read gives up with ErrNotCoupled.
			if _, err := VerifiedFetch(dep, BackendOf(p), "mnt/f", 3); !errors.Is(err, ErrNotCoupled) {
				t.Fatalf("VerifiedFetch err = %v", err)
			}
		})
	}
}

func TestOrderingViolationDetected(t *testing.T) {
	// Committing a file while dropping its ancestors' bundles (a client
	// that died before recording them) leaves dangling pointers the walk
	// must find.
	dep := newDep(t, sim.Eventual)
	p := NewP2(dep, Options{})
	_, _, out, _, outB := onePipeline(t, 29)
	own := outB[len(outB)-1:] // only the file's own bundle
	if err := p.Commit(out, own); err != nil {
		t.Fatal(err)
	}
	dep.Settle()
	walk, err := CheckCausalOrdering(dep, BackendSDB, out.Ref)
	if err != nil {
		t.Fatal(err)
	}
	if walk.Ordered() {
		t.Fatal("missing ancestors not reported as dangling")
	}
}

func TestVerifiedFetchRetriesThroughStaleness(t *testing.T) {
	// Under eventual consistency a read issued immediately after a commit
	// may be stale; VerifiedFetch must retry until coupled.
	dep := newDep(t, sim.Eventual)
	p := NewP2(dep, Options{})
	_, mid, out, midB, outB := onePipeline(t, 31)
	commitAll(t, p, []FileObject{mid, out}, [][]prov.Bundle{midB, outB})
	rep, err := VerifiedFetch(dep, BackendSDB, out.Path, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Coupled {
		t.Fatalf("VerifiedFetch returned uncoupled report: %+v", rep)
	}
}

func TestFindByAttrBothBackends(t *testing.T) {
	for _, tc := range protocolsUnderTest() {
		t.Run(tc.name, func(t *testing.T) {
			dep, p, _, out := runProtocolPipeline(t, tc.mk)
			refs, err := FindByAttr(dep, BackendOf(p), prov.AttrName, "mnt/out")
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, r := range refs {
				if r == out.Ref {
					found = true
				}
			}
			if !found {
				t.Fatalf("FindByAttr missed %v (got %v)", out.Ref, refs)
			}
		})
	}
}

func TestProbePropertiesMatchesTable1(t *testing.T) {
	want := map[string]PropertyReport{
		"S3fs": {Protocol: "S3fs"},
		"P1":   {Protocol: "P1", CausalOrdering: true, Persistence: true},
		"P2":   {Protocol: "P2", CausalOrdering: true, EfficientQuery: true, Persistence: true},
		"P3":   {Protocol: "P3", DataCoupling: true, CausalOrdering: true, EfficientQuery: true, Persistence: true},
	}
	for _, f := range Factories() {
		got, err := ProbeProperties(f, 101)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if got != want[f.Name] {
			t.Errorf("%s: got %+v, want %+v", f.Name, got, want[f.Name])
		}
	}
}

func TestWALCodecRoundTrip(t *testing.T) {
	dep := newDep(t, sim.Strict)
	txn := uuidNew(dep)
	hdr := walTxn{Txn: txn, TmpKey: "tmp/x", FinalKey: "data/mnt/f", Size: 123456, Ref: prov.Ref{UUID: newUUID(dep), Version: 9}}
	payload := []byte(strings.Repeat("provenance-bytes-", 1200)) // > 2 chunks
	msgs := encodeWAL(txn, hdr, payload, 0)
	if len(msgs) < 3 {
		t.Fatalf("messages = %d, want >= 3", len(msgs))
	}
	for _, m := range msgs {
		if len(m) > 8192 {
			t.Fatalf("message exceeds 8KB: %d", len(m))
		}
	}
	var rebuilt []byte
	total := -1
	for i, m := range msgs {
		pkt, err := decodeWAL(m)
		if err != nil {
			t.Fatal(err)
		}
		if pkt.Txn != txn || pkt.Seq != i {
			t.Fatalf("packet %d header wrong: %+v", i, pkt)
		}
		if i == 0 {
			if !pkt.First || pkt.Header.Total != len(msgs) || pkt.Header.TmpKey != hdr.TmpKey ||
				pkt.Header.FinalKey != hdr.FinalKey || pkt.Header.Size != hdr.Size || pkt.Header.Ref != hdr.Ref {
				t.Fatalf("first packet header = %+v", pkt.Header)
			}
			total = pkt.Header.Total
		}
		rebuilt = append(rebuilt, pkt.Payload...)
	}
	if total != len(msgs) {
		t.Fatalf("total = %d", total)
	}
	if string(rebuilt) != string(payload) {
		t.Fatal("payload corrupted across chunking")
	}
}

func TestWALCodecRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, {1}, []byte("notawalpacket........................")} {
		if _, err := decodeWAL(data); err == nil {
			t.Fatalf("decodeWAL accepted %q", data)
		}
	}
}

func TestRunParallel(t *testing.T) {
	var mu = make(chan struct{}, 1)
	count := 0
	tasks := make([]func() error, 50)
	for i := range tasks {
		i := i
		tasks[i] = func() error {
			mu <- struct{}{}
			count++
			<-mu
			if i == 17 {
				return fmt.Errorf("task 17 fails")
			}
			return nil
		}
	}
	err := par.Run(8, tasks)
	if err == nil || !strings.Contains(err.Error(), "task 17") {
		t.Fatalf("err = %v", err)
	}
	if count != 50 {
		t.Fatalf("ran %d of 50 tasks", count)
	}
	if err := par.Run(4, nil); err != nil {
		t.Fatal(err)
	}
}

// uuidNew draws a uuid from the deployment's seeded stream.
func uuidNew(dep *Deployment) [16]byte {
	var u [16]byte
	copy(u[:], dep.Env.Rand().Bytes(16))
	u[6] = (u[6] & 0x0f) | 0x40
	u[8] = (u[8] & 0x3f) | 0x80
	return u
}

// TestSettleWaitsForUnreceivedWAL commits one transaction whose WAL packet
// stays invisible past Settle's three idle rounds: at seed 328 its staleness
// draw is 3.2 s, over four 700 ms means. Settle must not return before the
// packet has been received and the transaction committed.
func TestSettleWaitsForUnreceivedWAL(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Consistency = sim.Eventual
	cfg.Seed = 328
	dep := NewDeployment(sim.NewEnv(cfg))
	p := NewP3(dep, Options{})
	_, _, out, _, outB := onePipeline(t, 1)
	commitAll(t, p, []FileObject{out}, [][]prov.Bundle{outB})
	if n := dep.WAL.Len(); n != 0 {
		t.Fatalf("Settle returned with %d WAL messages never received", n)
	}
	if _, err := ReadProvenance(dep, BackendSDB, out.Ref.UUID); err != nil {
		t.Fatalf("transaction not committed after Settle: %v", err)
	}
}
