// Package pass implements the provenance collection substrate: the role the
// PASS kernel plays in the paper. The collector observes a system-call
// trace, builds the provenance DAG, and hands per-object provenance bundles
// to the storage layer on close/flush.
//
// Versioning follows the causality-based scheme of PASS: every version of a
// file or process is a distinct DAG node, and a new version is created
// exactly when adding a dependency edge would otherwise close a cycle
// (a process that read a file then writes it produces a new file version
// that depends on both the process and the previous file version). The
// resulting graph is acyclic by construction, which internal/prov can check.
//
// The freeze rule: a version the storage layer has recorded (MarkRecorded)
// is immutable. A read or write that would add an edge to a recorded
// version creates the object's next version first and adds the edge there,
// so everything the local graph says about a closure reaches the cloud with
// the next close — and a recorded version's Merkle leaf digest, memoized on
// first use, stays valid for good.
package pass

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"passcloud/internal/merkle"
	"passcloud/internal/prov"
	"passcloud/internal/trace"
	"passcloud/internal/uuid"
)

// objectState tracks the live head version of one file/pipe/process.
type objectState struct {
	ref     prov.Ref // current version
	typ     prov.ObjectType
	name    string
	size    int64 // current logical size (files)
	removed bool
}

// Collector turns trace events into a provenance graph. It also plays the
// role of the client-side provenance cache: bundles accumulate in memory
// until the storage layer takes them at close/flush time.
//
// The per-close work is kept incremental: the collector maintains, as edges
// and nodes are added, one dependency-edge set (O(1) duplicate-edge checks
// on the hot read/write path), per-node state holding the parent list
// pre-sorted in the canonical ref-string order (no re-sort per closure
// visit) and the memoized leaf digest of a recorded version (a close hashes
// its dirty fringe, not its whole closure). Walks are iterative, so
// arbitrarily deep version chains cannot blow the stack, and mark nodes
// with a per-walk generation instead of allocating a visited set.
type Collector struct {
	src   uuid.Source
	graph *prov.Graph

	procs map[int]*objectState
	files map[string]*objectState

	// nodes is the collector's state for every node of the graph.
	nodes map[prov.Ref]*nodeState

	// edges is the dependency-edge set: every xref any node carries,
	// regardless of attribute. It answers hasInput in O(1).
	edges map[edge]struct{}

	// gen numbers walks: a node whose seen equals gen was visited by the
	// current one. order, stack and frames are the walks' reused scratch
	// space.
	gen    uint64
	order  []prov.Ref
	stack  []prov.Ref
	frames []frame

	clock func() time.Duration // start-time attribution for processes
}

// edge is one dependency edge, from a node to the node it depends on.
type edge struct{ from, to prov.Ref }

// nodeState is what the collector keeps beside one graph node, allocated
// with the node itself.
type nodeState struct {
	node prov.Node

	// parents are the node's distinct parent refs, sorted lazily into the
	// canonical ref-string order the closure walks visit them in: inserts
	// are O(1) appends that clear the sorted flag, and a node re-sorts at
	// most once per closure since its last new edge — so a high-fan-in
	// node (a process reading thousands of files) stays linear per event.
	parents []prov.Ref
	sorted  bool

	// recorded marks a version already handed to (and accepted by) the
	// storage layer; everything else is dirty client-side state. A
	// recorded version is frozen, so its leaf digest is computed once.
	recorded bool
	hashed   bool
	digest   merkle.Digest

	seen uint64 // the walk generation that last visited the node
}

// New returns an empty collector drawing uuids from src. The optional clock
// supplies process start times; nil uses a monotonic counter.
func New(src uuid.Source, clock func() time.Duration) *Collector {
	c := &Collector{
		src:   src,
		graph: prov.NewGraph(),
		procs: make(map[int]*objectState),
		files: make(map[string]*objectState),
		nodes: make(map[prov.Ref]*nodeState),
		edges: make(map[edge]struct{}),
		clock: clock,
	}
	if c.clock == nil {
		var tick time.Duration
		c.clock = func() time.Duration { tick += time.Millisecond; return tick }
	}
	return c
}

// Graph exposes the collected DAG (read-only by convention).
func (c *Collector) Graph() *prov.Graph { return c.graph }

// FileRef returns the current version ref of path, if the file exists.
func (c *Collector) FileRef(path string) (prov.Ref, bool) {
	st, ok := c.files[path]
	if !ok || st.removed {
		return prov.Ref{}, false
	}
	return st.ref, true
}

// FileSize returns the current logical size of path.
func (c *Collector) FileSize(path string) int64 {
	if st, ok := c.files[path]; ok {
		return st.size
	}
	return 0
}

// ProcRef returns the current version ref of pid's process node.
func (c *Collector) ProcRef(pid int) (prov.Ref, bool) {
	st, ok := c.procs[pid]
	if !ok {
		return prov.Ref{}, false
	}
	return st.ref, true
}

// Apply feeds one event into the collector.
func (c *Collector) Apply(ev trace.Event) error {
	switch ev.Kind {
	case trace.Exec:
		c.exec(ev)
	case trace.Fork:
		c.fork(ev)
	case trace.Exit:
		// Process nodes persist in the DAG; nothing to do.
	case trace.Read:
		c.read(ev.PID, ev.Path)
	case trace.Write:
		c.write(ev.PID, ev.Path, ev.Bytes)
	case trace.MkPipe:
		c.mkpipe(ev.PID, ev.Path)
	case trace.Unlink:
		c.unlink(ev.Path)
	case trace.Close, trace.Flush, trace.Compute:
		// Close/flush are storage-layer triggers; compute is time only.
	default:
		return fmt.Errorf("pass: unknown event kind %v", ev.Kind)
	}
	return nil
}

// newNode allocates and inserts a fresh, dirty node version. extra is how
// many records the caller will add beyond type and name.
func (c *Collector) newNode(u uuid.UUID, version int, typ prov.ObjectType, name string, extra int) *prov.Node {
	ns := &nodeState{node: prov.Node{Ref: prov.Ref{UUID: u, Version: version}, Type: typ, Name: name}}
	n := &ns.node
	n.Records = make([]prov.Record, 0, 2+extra)
	n.Records = append(n.Records, prov.Record{Attr: prov.AttrType, Value: typ.String()})
	if name != "" {
		n.Records = append(n.Records, prov.Record{Attr: prov.AttrName, Value: name})
	}
	if err := c.graph.Add(n); err != nil {
		// Version allocation is internal; a collision is a bug.
		panic(err)
	}
	c.nodes[n.Ref] = ns
	return n
}

// addXref records one dependency edge in the graph and in the collector's
// incremental edge set and sorted-parent cache.
func (c *Collector) addXref(from prov.Ref, attr string, to prov.Ref) {
	ns := c.nodes[from]
	if ns == nil || ns.recorded {
		// Edges are only added to dirty nodes the collector created; a
		// miss or a recorded target is a bug.
		panic(fmt.Sprintf("pass: edge from %s, which is missing or recorded", from))
	}
	ns.node.Records = append(ns.node.Records, prov.Record{Attr: attr, Xref: to})
	e := edge{from, to}
	if _, dup := c.edges[e]; dup {
		// A second edge to the same parent under a different attribute
		// (e.g. execfile plus prev) changes no closure order.
		return
	}
	c.edges[e] = struct{}{}
	ns.parents = append(ns.parents, to)
	ns.sorted = len(ns.parents) == 1
}

// sortedParents returns a node's parents in canonical ref-string order,
// sorting on first use after an insert.
func (ns *nodeState) sortedParents() []prov.Ref {
	if !ns.sorted {
		sort.Slice(ns.parents, func(i, j int) bool { return refStringLess(ns.parents[i], ns.parents[j]) })
		ns.sorted = true
	}
	return ns.parents
}

// refStringLess orders refs exactly as comparing their String() forms
// would — the uuid's hex rendering preserves byte order and both strings
// share the dash layout, so only a same-uuid tie needs the rendered
// decimal version suffixes — without allocating for the common case.
func refStringLess(a, b prov.Ref) bool {
	for i := range a.UUID {
		if a.UUID[i] != b.UUID[i] {
			return a.UUID[i] < b.UUID[i]
		}
	}
	if a.Version == b.Version {
		return false
	}
	return strconv.Itoa(a.Version) < strconv.Itoa(b.Version)
}

// exec creates (or re-versions) the process node for pid with the full
// attribute set PASS records: argv, environment, pid, start time, binary.
func (c *Collector) exec(ev trace.Event) {
	st, ok := c.procs[ev.PID]
	if !ok {
		st = &objectState{typ: prov.Process}
		c.procs[ev.PID] = st
		st.ref = prov.Ref{UUID: uuid.New(c.src), Version: 0}
	}
	name := ev.Path
	if len(ev.Argv) > 0 {
		name = ev.Argv[0]
	}
	prevRef := st.ref
	st.ref = prov.Ref{UUID: st.ref.UUID, Version: st.ref.Version + 1}
	st.name = name
	// prev, pid, start time, argv, env and the executed binary.
	n := c.newNode(st.ref.UUID, st.ref.Version, prov.Process, name, 4+len(ev.Argv)+len(ev.Env))
	if prevRef.Version > 0 {
		c.addXref(st.ref, prov.AttrPrevVer, prevRef)
	}
	n.Records = append(n.Records,
		prov.Record{Attr: prov.AttrPID, Value: strconv.Itoa(ev.PID)},
		prov.Record{Attr: prov.AttrStartTime, Value: c.clock().String()},
	)
	for _, a := range ev.Argv {
		n.Records = append(n.Records, prov.Record{Attr: prov.AttrArgv, Value: a})
	}
	for _, e := range ev.Env {
		n.Records = append(n.Records, prov.Record{Attr: prov.AttrEnv, Value: e})
	}
	// The executed binary is an input if it is a tracked file.
	if bin, ok := c.files[ev.Path]; ok && !bin.removed {
		c.addXref(st.ref, prov.AttrExecFile, bin.ref)
	}
}

// fork records the parent reference on the child's process node. The child
// node proper appears at its exec; if the child never execs, a bare process
// node is created here.
func (c *Collector) fork(ev trace.Event) {
	parent, ok := c.procs[ev.PID]
	if !ok {
		c.exec(trace.Event{Kind: trace.Exec, PID: ev.PID, Path: "unknown"})
		parent = c.procs[ev.PID]
	}
	child := &objectState{typ: prov.Process, ref: prov.Ref{UUID: uuid.New(c.src), Version: 1}, name: parent.name}
	c.procs[ev.Child] = child
	n := c.newNode(child.ref.UUID, 1, prov.Process, parent.name, 2)
	n.Records = append(n.Records, prov.Record{Attr: prov.AttrPID, Value: strconv.Itoa(ev.Child)})
	c.addXref(child.ref, prov.AttrForkParent, parent.ref)
}

// fileState returns (creating on demand) the state for path.
func (c *Collector) fileState(path string, typ prov.ObjectType) *objectState {
	st, ok := c.files[path]
	if !ok || st.removed {
		st = &objectState{typ: typ, name: path, ref: prov.Ref{UUID: uuid.New(c.src), Version: 1}}
		c.files[path] = st
		c.newNode(st.ref.UUID, 1, typ, path, 1)
	}
	return st
}

// procState returns (creating on demand) the process state for pid.
func (c *Collector) procState(pid int) *objectState {
	st, ok := c.procs[pid]
	if !ok {
		c.exec(trace.Event{Kind: trace.Exec, PID: pid, Path: "unknown"})
		st = c.procs[pid]
	}
	return st
}

// read records "process depends on file": an INPUT edge from the process
// node to the file's current version. If the file's current version already
// depends on this process version (the process wrote it earlier), adding the
// edge would close a cycle, so the process is re-versioned first — the
// causality-based versioning algorithm. A recorded process version is
// re-versioned too: it is frozen.
func (c *Collector) read(pid int, path string) {
	p := c.procState(pid)
	f := c.fileState(path, typeForPath(path))
	if c.hasInput(p.ref, f.ref) {
		return // duplicate edge; PASS deduplicates repeated reads
	}
	if c.nodes[p.ref].recorded || c.reachable(f.ref, p.ref) {
		c.bumpProc(p)
	}
	c.addXref(p.ref, prov.AttrInput, f.ref)
}

// write records "file depends on process". If the process already depends on
// the file's current version (it read the file earlier), the file is
// re-versioned: the new version depends on both the writing process and the
// previous file version. A recorded file version is re-versioned too: it is
// frozen.
func (c *Collector) write(pid int, path string, n int64) {
	p := c.procState(pid)
	f := c.fileState(path, typeForPath(path))
	f.size += n
	if c.hasInput(f.ref, p.ref) {
		return // this process version already recorded as writer
	}
	if c.nodes[f.ref].recorded || c.reachable(p.ref, f.ref) {
		c.bumpFile(f)
	}
	c.addXref(f.ref, prov.AttrInput, p.ref)
}

// bumpProc creates the next version node of a process.
func (c *Collector) bumpProc(p *objectState) {
	prev := p.ref
	p.ref = prov.Ref{UUID: prev.UUID, Version: prev.Version + 1}
	c.newNode(p.ref.UUID, p.ref.Version, prov.Process, p.name, 2)
	c.addXref(p.ref, prov.AttrPrevVer, prev)
}

// bumpFile creates the next version node of a file or pipe.
func (c *Collector) bumpFile(f *objectState) {
	prev := f.ref
	f.ref = prov.Ref{UUID: prev.UUID, Version: prev.Version + 1}
	c.newNode(f.ref.UUID, f.ref.Version, f.typ, f.name, 2)
	c.addXref(f.ref, prov.AttrPrevVer, prev)
}

// hasInput reports whether from already carries a dependency edge to to. It
// answers from the incremental edge set in O(1); the seed implementation
// scanned every record of the node per read/write event, which dominated
// collection time on large traces.
func (c *Collector) hasInput(from, to prov.Ref) bool {
	_, ok := c.edges[edge{from, to}]
	return ok
}

// reachable reports whether to can be reached from from along dependency
// edges (whether to is an ancestor of from), walking the parent lists.
func (c *Collector) reachable(from, to prov.Ref) bool {
	if from == to {
		return true
	}
	c.gen++
	c.nodes[from].seen = c.gen
	stack := append(c.stack[:0], from)
	defer func() { c.stack = stack[:0] }()
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range c.nodes[cur].parents {
			if p == to {
				return true
			}
			if ns := c.nodes[p]; ns != nil && ns.seen != c.gen {
				ns.seen = c.gen
				stack = append(stack, p)
			}
		}
	}
	return false
}

// mkpipe creates a pipe node (pipes have no name attribute in PASS; the
// path is only the collector's handle).
func (c *Collector) mkpipe(pid int, path string) {
	st := &objectState{typ: prov.Pipe, ref: prov.Ref{UUID: uuid.New(c.src), Version: 1}}
	c.files[path] = st
	c.newNode(st.ref.UUID, 1, prov.Pipe, "", 1)
	_ = pid
}

// unlink marks the file removed. Its provenance nodes remain in the graph —
// data-independent persistence.
func (c *Collector) unlink(path string) {
	if st, ok := c.files[path]; ok {
		st.removed = true
	}
}

// typeForPath distinguishes pipes (created via MkPipe, read/written by
// their handle) from regular files.
func typeForPath(path string) prov.ObjectType {
	if len(path) > 5 && path[:5] == "pipe:" {
		return prov.Pipe
	}
	return prov.File
}

// MarkRecorded notes that the storage layer has durably recorded these node
// versions; they will not be bundled again, and are frozen.
func (c *Collector) MarkRecorded(refs ...prov.Ref) {
	for _, r := range refs {
		if ns := c.nodes[r]; ns != nil {
			ns.recorded = true
		}
	}
}

// Recorded reports whether ref has been durably recorded.
func (c *Collector) Recorded(ref prov.Ref) bool {
	ns := c.nodes[ref]
	return ns != nil && ns.recorded
}

// PendingFor assembles the bundles that must be persisted when path is
// closed or flushed: every unrecorded version of the file itself plus the
// unrecorded ancestor closure (process nodes, prior versions, upstream
// files), ancestors first. This is the multi-object causal ordering set of
// §3: the storage layer must write these before (or atomically with) the
// object. The recorded versions of an object are always a prefix of its
// versions — a version is recorded only with its unrecorded ancestors, and
// every version depends on its predecessor — so the roots are the versions
// above the newest recorded one, found walking down from the current one:
// a close costs time proportional to the unrecorded fringe, not the
// object's version count.
func (c *Collector) PendingFor(path string) []prov.Bundle {
	st, ok := c.files[path]
	if !ok {
		return nil
	}
	v := st.ref.Version
	for v > 0 && !c.Recorded(prov.Ref{UUID: st.ref.UUID, Version: v}) {
		v--
	}
	var buf [8]prov.Ref
	roots := buf[:0]
	for v++; v <= st.ref.Version; v++ {
		roots = append(roots, prov.Ref{UUID: st.ref.UUID, Version: v})
	}
	return c.closure(roots)
}

// PendingAll returns every unrecorded bundle in the graph, ancestors first.
// The microbenchmark replayer uses it to upload a captured provenance set.
func (c *Collector) PendingAll() []prov.Bundle {
	var roots []prov.Ref
	for _, n := range c.graph.Nodes() {
		if !c.Recorded(n.Ref) {
			roots = append(roots, n.Ref)
		}
	}
	return c.closure(roots)
}

// FullClosureFor returns every version of path's object plus its complete
// ancestor closure — recorded or not — in the canonical ancestors-first
// order (root versions oldest first, parents visited in ref-string order).
// The storage layer hashes this closure into the Merkle digest that reading
// clients verify ancestry against; the reader reconstructs the same order
// from the recorded provenance.
func (c *Collector) FullClosureFor(path string) []prov.Bundle {
	return c.bundles(c.fullClosure(path))
}

// ClosureRootFor is the Merkle root of FullClosureFor(path) —
// merkle.RootOfBundles over it — computed from the leaf digests: a recorded
// version's digest is memoized (recorded versions are frozen), so only the
// dirty fringe is hashed.
func (c *Collector) ClosureRootFor(path string) merkle.Digest {
	order := c.fullClosure(path)
	var buf [64]merkle.Digest
	leaves := buf[:0]
	for _, r := range order {
		ns := c.nodes[r]
		switch {
		case ns.hashed:
			leaves = append(leaves, ns.digest)
		case ns.recorded:
			ns.digest, ns.hashed = merkle.HashBundle(ns.node.Bundle()), true
			leaves = append(leaves, ns.digest)
		default:
			leaves = append(leaves, merkle.HashBundle(ns.node.Bundle()))
		}
	}
	return merkle.Root(leaves)
}

// fullClosure is the canonical order FullClosureFor bundles: every version
// of path's object and its complete ancestor closure. It returns the
// collector's scratch slice, valid until the next walk.
func (c *Collector) fullClosure(path string) []prov.Ref {
	st, ok := c.files[path]
	if !ok {
		return nil
	}
	var buf [8]prov.Ref
	roots := buf[:0]
	for v := 1; v <= st.ref.Version; v++ {
		r := prov.Ref{UUID: st.ref.UUID, Version: v}
		if c.nodes[r] != nil {
			roots = append(roots, r)
		}
	}
	return c.walkAncestorsFirst(roots, false)
}

// closure expands roots with their unrecorded ancestors in topological
// (ancestors-first) order.
func (c *Collector) closure(roots []prov.Ref) []prov.Bundle {
	return c.bundles(c.walkAncestorsFirst(roots, true))
}

// bundles returns the nodes of order as bundles sharing the graph's records.
func (c *Collector) bundles(order []prov.Ref) []prov.Bundle {
	if len(order) == 0 {
		return nil
	}
	out := make([]prov.Bundle, len(order))
	for i, r := range order {
		out[i] = c.nodes[r].node.Bundle()
	}
	return out
}

// walkAncestorsFirst is the shared DFS of the closure assemblers: parents in
// canonical (pre-sorted ref-string) order, ancestors emitted before their
// descendants, every node visited once. unrecordedOnly prunes at recorded
// nodes, which is what bounds PendingFor to the dirty fringe. The walk is
// iterative with an explicit frame stack so a version chain tens of
// thousands deep — a long-running process appending to one log file, say —
// cannot overflow the goroutine stack the way the seed's recursion could.
// It returns the collector's scratch slice, valid until the next walk.
func (c *Collector) walkAncestorsFirst(roots []prov.Ref, unrecordedOnly bool) []prov.Ref {
	order := c.order[:0]
	c.gen++
	stack := c.frames[:0]
	for _, r := range roots {
		ns := c.nodes[r]
		if ns.seen == c.gen {
			continue
		}
		ns.seen = c.gen
		stack = append(stack, frame{ns: ns, parents: ns.sortedParents()})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			descended := false
			for f.next < len(f.parents) {
				p := c.nodes[f.parents[f.next]]
				f.next++
				if p != nil && p.seen != c.gen && (!unrecordedOnly || !p.recorded) {
					p.seen = c.gen
					stack = append(stack, frame{ns: p, parents: p.sortedParents()}) // f is invalid past this point
					descended = true
					break
				}
			}
			if descended {
				continue
			}
			order = append(order, f.ns.node.Ref)
			stack = stack[:len(stack)-1]
		}
	}
	c.order, c.frames = order, stack
	return order
}

// frame is one node on the closure walk's explicit stack.
type frame struct {
	ns      *nodeState
	parents []prov.Ref
	next    int
}
