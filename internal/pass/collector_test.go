package pass

import (
	"testing"
	"testing/quick"

	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/trace"
)

func newCollector() *Collector {
	return New(sim.NewRand(21), nil)
}

func TestReadWriteCreatesDependencies(t *testing.T) {
	c := newCollector()
	b := trace.NewBuilder()
	pid := b.Spawn(0, "/bin/sort", "sort", "in.txt")
	b.Read(pid, "in.txt", 100).Write(pid, "out.txt", 50).Close(pid, "out.txt")
	for _, ev := range b.Trace().Events {
		if err := c.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	out, ok := c.FileRef("out.txt")
	if !ok {
		t.Fatal("out.txt not tracked")
	}
	proc := c.procs[pid].ref
	in, _ := c.FileRef("in.txt")
	g := c.Graph()
	// out.txt depends on the process; the process depends on in.txt.
	if !g.Reachable(out, proc) {
		t.Fatal("output does not depend on writing process")
	}
	if !g.Reachable(out, in) {
		t.Fatal("transitive dependency output -> input missing")
	}
	if err := g.CheckAcyclic(); err != nil {
		t.Fatal(err)
	}
}

func TestCycleAvoidanceVersionsFile(t *testing.T) {
	// A process that reads then writes the same file must produce a new
	// file version, not a cycle.
	c := newCollector()
	pid := 100
	c.Apply(trace.Event{Kind: trace.Exec, PID: pid, Path: "/bin/tool", Argv: []string{"tool"}})
	c.Apply(trace.Event{Kind: trace.Write, PID: pid, Path: "f", Bytes: 10})
	v1, _ := c.FileRef("f")
	c.Apply(trace.Event{Kind: trace.Read, PID: pid, Path: "f"})
	c.Apply(trace.Event{Kind: trace.Write, PID: pid, Path: "f", Bytes: 10})
	v2, _ := c.FileRef("f")
	if v1 == v2 {
		t.Fatalf("read-then-write did not version the file: %v", v1)
	}
	if v2.UUID != v1.UUID || v2.Version != v1.Version+1 {
		t.Fatalf("unexpected versioning %v -> %v", v1, v2)
	}
	if err := c.Graph().CheckAcyclic(); err != nil {
		t.Fatal(err)
	}
	// The new version must depend on the previous one.
	if !c.Graph().Reachable(v2, v1) {
		t.Fatal("new version does not reference previous version")
	}
}

func TestCycleAvoidanceVersionsProcess(t *testing.T) {
	// Writing a file then reading it back re-versions the reader process.
	c := newCollector()
	pid := 100
	c.Apply(trace.Event{Kind: trace.Exec, PID: pid, Path: "/bin/tool", Argv: []string{"tool"}})
	p1 := c.procs[pid].ref
	c.Apply(trace.Event{Kind: trace.Write, PID: pid, Path: "f", Bytes: 10})
	c.Apply(trace.Event{Kind: trace.Read, PID: pid, Path: "f"})
	p2 := c.procs[pid].ref
	if p1 == p2 {
		t.Fatal("write-then-read did not version the process")
	}
	if err := c.Graph().CheckAcyclic(); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedReadsDeduplicated(t *testing.T) {
	c := newCollector()
	pid := 100
	c.Apply(trace.Event{Kind: trace.Exec, PID: pid, Path: "/bin/cat", Argv: []string{"cat"}})
	for i := 0; i < 10; i++ {
		c.Apply(trace.Event{Kind: trace.Read, PID: pid, Path: "in"})
	}
	p := c.procs[pid].ref
	inputs := 0
	for _, r := range c.Graph().Node(p).Records {
		if r.Attr == prov.AttrInput {
			inputs++
		}
	}
	if inputs != 1 {
		t.Fatalf("input edges = %d, want 1", inputs)
	}
}

func TestForkRecordsParent(t *testing.T) {
	c := newCollector()
	c.Apply(trace.Event{Kind: trace.Exec, PID: 1, Path: "/bin/sh", Argv: []string{"sh"}})
	c.Apply(trace.Event{Kind: trace.Fork, PID: 1, Child: 2})
	parent := c.procs[1].ref
	child := c.procs[2].ref
	n := c.Graph().Node(child)
	found := false
	for _, r := range n.Records {
		if r.Attr == prov.AttrForkParent && r.Xref == parent {
			found = true
		}
	}
	if !found {
		t.Fatal("fork parent not recorded")
	}
}

func TestExecRecordsAttributes(t *testing.T) {
	c := newCollector()
	c.Apply(trace.Event{Kind: trace.Exec, PID: 7, Path: "/usr/bin/blast",
		Argv: []string{"blast", "-db", "nr"}, Env: []string{"HOME=/root"}})
	p := c.procs[7].ref
	n := c.Graph().Node(p)
	attrs := make(map[string][]string)
	for _, r := range n.Records {
		attrs[r.Attr] = append(attrs[r.Attr], r.Value)
	}
	if len(attrs[prov.AttrArgv]) != 3 {
		t.Fatalf("argv = %v", attrs[prov.AttrArgv])
	}
	if len(attrs[prov.AttrEnv]) != 1 || attrs[prov.AttrEnv][0] != "HOME=/root" {
		t.Fatalf("env = %v", attrs[prov.AttrEnv])
	}
	if len(attrs[prov.AttrPID]) != 1 || attrs[prov.AttrPID][0] != "7" {
		t.Fatalf("pid = %v", attrs[prov.AttrPID])
	}
	if len(attrs[prov.AttrStartTime]) != 1 {
		t.Fatal("start time missing")
	}
	if n.Type != prov.Process || n.Name != "blast" {
		t.Fatalf("node = %+v", n)
	}
}

func TestPipeNodesHaveNoName(t *testing.T) {
	c := newCollector()
	c.Apply(trace.Event{Kind: trace.Exec, PID: 1, Path: "/bin/a", Argv: []string{"a"}})
	c.Apply(trace.Event{Kind: trace.MkPipe, PID: 1, Path: "pipe:0"})
	c.Apply(trace.Event{Kind: trace.Write, PID: 1, Path: "pipe:0", Bytes: 5})
	r, ok := c.FileRef("pipe:0")
	if !ok {
		t.Fatal("pipe not tracked")
	}
	n := c.Graph().Node(r)
	if n.Type != prov.Pipe {
		t.Fatalf("type = %v", n.Type)
	}
	for _, rec := range n.Records {
		if rec.Attr == prov.AttrName {
			t.Fatal("pipe has a name record")
		}
	}
}

func TestUnlinkKeepsProvenance(t *testing.T) {
	c := newCollector()
	c.Apply(trace.Event{Kind: trace.Exec, PID: 1, Path: "/bin/a", Argv: []string{"a"}})
	c.Apply(trace.Event{Kind: trace.Write, PID: 1, Path: "f", Bytes: 10})
	r, _ := c.FileRef("f")
	c.Apply(trace.Event{Kind: trace.Unlink, PID: 1, Path: "f"})
	if _, ok := c.FileRef("f"); ok {
		t.Fatal("removed file still resolvable")
	}
	if c.Graph().Node(r) == nil {
		t.Fatal("provenance node removed with file (persistence violation)")
	}
}

func TestPendingForIncludesAncestorsFirst(t *testing.T) {
	c := newCollector()
	b := trace.NewBuilder()
	p1 := b.Spawn(0, "/bin/stage1", "stage1")
	b.Read(p1, "raw", 100).Write(p1, "mid", 80).Close(p1, "mid")
	p2 := b.Spawn(0, "/bin/stage2", "stage2")
	b.Read(p2, "mid", 80).Write(p2, "out", 60).Close(p2, "out")
	for _, ev := range b.Trace().Events {
		c.Apply(ev)
	}
	bundles := c.PendingFor("out")
	if len(bundles) < 5 { // out, stage2, mid, stage1, raw
		t.Fatalf("pending bundles = %d, want the full closure", len(bundles))
	}
	// Topological: every xref must point to an earlier bundle (or an
	// already-recorded ref).
	seen := make(map[prov.Ref]bool)
	for _, bun := range bundles {
		for _, anc := range bun.Ancestors() {
			if !seen[anc] && !c.Recorded(anc) {
				t.Fatalf("bundle %s references %s before it was emitted", bun.Ref, anc)
			}
		}
		seen[bun.Ref] = true
	}
	// The file being flushed must be last-ish: its own bundle present.
	out, _ := c.FileRef("out")
	if !seen[out] {
		t.Fatal("flushed file's own bundle missing")
	}
}

func TestMarkRecordedShrinksPending(t *testing.T) {
	c := newCollector()
	b := trace.NewBuilder()
	pid := b.Spawn(0, "/bin/gen", "gen")
	b.Write(pid, "f", 10).Close(pid, "f")
	for _, ev := range b.Trace().Events {
		c.Apply(ev)
	}
	first := c.PendingFor("f")
	if len(first) == 0 {
		t.Fatal("no pending bundles")
	}
	for _, bun := range first {
		c.MarkRecorded(bun.Ref)
	}
	if again := c.PendingFor("f"); len(again) != 0 {
		t.Fatalf("pending after MarkRecorded = %d", len(again))
	}
	// A new write makes it dirty again.
	c.Apply(trace.Event{Kind: trace.Read, PID: pid, Path: "f"})
	c.Apply(trace.Event{Kind: trace.Write, PID: pid, Path: "f", Bytes: 5})
	if again := c.PendingFor("f"); len(again) == 0 {
		t.Fatal("new version not pending")
	}
}

func TestFileSizeAccumulates(t *testing.T) {
	c := newCollector()
	c.Apply(trace.Event{Kind: trace.Exec, PID: 1, Path: "/bin/dd", Argv: []string{"dd"}})
	c.Apply(trace.Event{Kind: trace.Write, PID: 1, Path: "f", Bytes: 100})
	c.Apply(trace.Event{Kind: trace.Write, PID: 1, Path: "f", Bytes: 150})
	if got := c.FileSize("f"); got != 250 {
		t.Fatalf("size = %d, want 250", got)
	}
}

func TestAcyclicUnderRandomTraces(t *testing.T) {
	// Property: no trace of interleaved reads/writes can produce a cycle.
	f := func(ops []uint8, seed int64) bool {
		c := New(sim.NewRand(seed), nil)
		c.Apply(trace.Event{Kind: trace.Exec, PID: 1, Path: "/bin/a", Argv: []string{"a"}})
		c.Apply(trace.Event{Kind: trace.Exec, PID: 2, Path: "/bin/b", Argv: []string{"b"}})
		files := []string{"f0", "f1", "f2"}
		for _, op := range ops {
			pid := 1 + int(op>>7)
			path := files[int(op>>2)%len(files)]
			if op&1 == 0 {
				c.Apply(trace.Event{Kind: trace.Read, PID: pid, Path: path})
			} else {
				c.Apply(trace.Event{Kind: trace.Write, PID: pid, Path: path, Bytes: 1})
			}
		}
		return c.Graph().CheckAcyclic() == nil && len(c.Graph().Dangling()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestVersionsMonotonicProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		c := newCollector()
		c.Apply(trace.Event{Kind: trace.Exec, PID: 1, Path: "/bin/a", Argv: []string{"a"}})
		last := 0
		for _, op := range ops {
			if op&1 == 0 {
				c.Apply(trace.Event{Kind: trace.Read, PID: 1, Path: "f"})
			} else {
				c.Apply(trace.Event{Kind: trace.Write, PID: 1, Path: "f", Bytes: 1})
			}
			if r, ok := c.FileRef("f"); ok {
				if r.Version < last {
					return false
				}
				last = r.Version
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDeepVersionChainClosure drives one process through tens of thousands
// of read-then-write cycles on a single file — the long-running-appender
// shape that builds an arbitrarily deep prev-version chain — and checks the
// iterative closure walks survive it and keep the canonical order.
func TestDeepVersionChainClosure(t *testing.T) {
	const depth = 30_000
	c := newCollector()
	c.Apply(trace.Event{Kind: trace.Exec, PID: 1, Path: "/bin/app", Argv: []string{"app"}})
	for i := 0; i < depth; i++ {
		c.Apply(trace.Event{Kind: trace.Read, PID: 1, Path: "mnt/log"})
		c.Apply(trace.Event{Kind: trace.Write, PID: 1, Path: "mnt/log", Bytes: 1})
	}
	ref, ok := c.FileRef("mnt/log")
	if !ok || ref.Version < depth {
		t.Fatalf("file version = %v ok=%v, want >= %d", ref, ok, depth)
	}
	bundles := c.PendingFor("mnt/log")
	if len(bundles) < depth {
		t.Fatalf("closure returned %d bundles, want >= %d", len(bundles), depth)
	}
	// Ancestors first: every xref must point at an already-emitted bundle.
	seen := make(map[prov.Ref]bool, len(bundles))
	for _, b := range bundles {
		for _, r := range b.Records {
			if r.IsXref() && !seen[r.Xref] {
				t.Fatalf("bundle %s references %s before it was emitted", b.Ref, r.Xref)
			}
		}
		seen[b.Ref] = true
	}
	// The full closure must emit the same nodes in the same order as the
	// pending closure when nothing is recorded yet (the Merkle digest and
	// its verifier both depend on this canonical order).
	full := c.FullClosureFor("mnt/log")
	if len(full) != len(bundles) {
		t.Fatalf("full closure %d bundles vs pending %d", len(full), len(bundles))
	}
	for i := range full {
		if full[i].Ref != bundles[i].Ref {
			t.Fatalf("order diverges at %d: %s vs %s", i, full[i].Ref, bundles[i].Ref)
		}
	}
}

// TestPendingForIsIncremental checks that recording versions shrinks the
// dirty fringe: a second close after MarkRecorded must hand over only the
// versions created since, not re-walk the recorded history.
func TestPendingForIsIncremental(t *testing.T) {
	c := newCollector()
	c.Apply(trace.Event{Kind: trace.Exec, PID: 1, Path: "/bin/app", Argv: []string{"app"}})
	for i := 0; i < 50; i++ {
		c.Apply(trace.Event{Kind: trace.Read, PID: 1, Path: "f"})
		c.Apply(trace.Event{Kind: trace.Write, PID: 1, Path: "f", Bytes: 1})
	}
	first := c.PendingFor("f")
	if len(first) == 0 {
		t.Fatal("no pending bundles")
	}
	for _, b := range first {
		c.MarkRecorded(b.Ref)
	}
	if again := c.PendingFor("f"); len(again) != 0 {
		t.Fatalf("second close re-handed %d recorded bundles", len(again))
	}
	// New activity dirties only the new fringe.
	c.Apply(trace.Event{Kind: trace.Read, PID: 1, Path: "f"})
	c.Apply(trace.Event{Kind: trace.Write, PID: 1, Path: "f", Bytes: 1})
	delta := c.PendingFor("f")
	if len(delta) == 0 || len(delta) >= len(first) {
		t.Fatalf("incremental close returned %d bundles (first close %d)", len(delta), len(first))
	}
	for _, b := range delta {
		if c.Recorded(b.Ref) {
			t.Fatalf("recorded bundle %s handed over again", b.Ref)
		}
	}
}

// TestDuplicateEdgesDeduplicated checks the O(1) edge set dedups repeated
// reads and writes exactly as the seed's record scan did.
func TestDuplicateEdgesDeduplicated(t *testing.T) {
	c := newCollector()
	c.Apply(trace.Event{Kind: trace.Exec, PID: 1, Path: "/bin/cat", Argv: []string{"cat"}})
	for i := 0; i < 10; i++ {
		c.Apply(trace.Event{Kind: trace.Read, PID: 1, Path: "in"})
	}
	pref := c.procs[1].ref
	n := c.Graph().Node(pref)
	inputs := 0
	for _, r := range n.Records {
		if r.Attr == prov.AttrInput {
			inputs++
		}
	}
	if inputs != 1 {
		t.Fatalf("repeated reads recorded %d input edges, want 1", inputs)
	}
}
