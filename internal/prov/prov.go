// Package prov defines the provenance model shared by the collector, the
// storage protocols and the query engine.
//
// Provenance is a directed acyclic graph. Nodes represent one version of one
// object (a file, a process, a pipe); each version of an object is a
// distinct node, which is what keeps the graph acyclic. Edges are
// cross-reference records from a node to the node it depends on: a process
// that read a file depends on that file version; a file that was written
// depends on the process that wrote it.
//
// A node's provenance is a list of records. A record is either a literal
// attribute (name, type, command line, environment, pid, start time) or a
// cross reference to an ancestor node. Objects are identified by a uuid
// assigned at creation; versions count from 1.
package prov

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"passcloud/internal/uuid"
)

// ObjectType classifies the object a node describes.
type ObjectType uint8

// Object types collected by PASS.
const (
	File ObjectType = iota
	Process
	Pipe
)

// String names the type the way PASS records it.
func (t ObjectType) String() string {
	switch t {
	case File:
		return "file"
	case Process:
		return "proc"
	case Pipe:
		return "pipe"
	}
	return "unknown"
}

// ParseObjectType is the inverse of ObjectType.String.
func ParseObjectType(s string) (ObjectType, error) {
	switch s {
	case "file":
		return File, nil
	case "proc":
		return Process, nil
	case "pipe":
		return Pipe, nil
	}
	return 0, fmt.Errorf("prov: unknown object type %q", s)
}

// Attribute names recorded by PASS (§2.1 of the paper).
const (
	AttrName       = "name"       // object name (files; pipes have none)
	AttrType       = "type"       // file | proc | pipe
	AttrInput      = "input"      // xref: object this node depends on
	AttrPrevVer    = "prev"       // xref: previous version of the same object
	AttrForkParent = "forkparent" // xref: parent process
	AttrExecFile   = "execfile"   // xref: the file being executed
	AttrArgv       = "argv"       // command line arguments
	AttrEnv        = "env"        // environment variables
	AttrPID        = "pid"        // process id
	AttrStartTime  = "starttime"  // execution start time
)

// Ref identifies one node: an object uuid plus a version.
type Ref struct {
	UUID    uuid.UUID
	Version int
}

// String renders the uuid_version form P2 uses as a SimpleDB item name.
func (r Ref) String() string {
	var buf [uuid.StringLen + 1 + 20]byte // uuid, '_', any int64
	return string(r.AppendTo(buf[:0]))
}

// AppendTo appends the uuid_version form to dst.
func (r Ref) AppendTo(dst []byte) []byte {
	dst = r.UUID.AppendTo(dst)
	dst = append(dst, '_')
	return strconv.AppendInt(dst, int64(r.Version), 10)
}

// IsZero reports whether r is the zero Ref.
func (r Ref) IsZero() bool { return r.UUID.IsZero() && r.Version == 0 }

// ParseRef decodes the uuid_version form.
func ParseRef(s string) (Ref, error) {
	i := strings.LastIndexByte(s, '_')
	if i < 0 {
		return Ref{}, fmt.Errorf("prov: malformed ref %q", s)
	}
	u, err := uuid.Parse(s[:i])
	if err != nil {
		return Ref{}, fmt.Errorf("prov: malformed ref %q: %v", s, err)
	}
	v, err := strconv.Atoi(s[i+1:])
	if err != nil || v < 1 {
		return Ref{}, fmt.Errorf("prov: malformed ref version in %q", s)
	}
	return Ref{UUID: u, Version: v}, nil
}

// Record is one provenance fact about a node: a literal attribute value, or
// a cross reference to an ancestor when Xref is non-zero.
type Record struct {
	Attr  string
	Value string // literal value (unused for xrefs)
	Xref  Ref    // ancestor reference; zero for literal records
}

// IsXref reports whether the record is a dependency edge.
func (r Record) IsXref() bool { return !r.Xref.IsZero() }

// Size estimates the encoded size of the record in bytes; the protocols use
// it to account for transfer volumes.
func (r Record) Size() int {
	if r.IsXref() {
		return len(r.Attr) + 40
	}
	return len(r.Attr) + len(r.Value) + 4
}

// Bundle is the provenance of one node as handed from the collector to a
// storage protocol: the node identity plus its records.
type Bundle struct {
	Ref     Ref
	Type    ObjectType
	Name    string
	Records []Record
}

// Size estimates the encoded size of the bundle.
func (b Bundle) Size() int {
	n := 64 + len(b.Name)
	for _, r := range b.Records {
		n += r.Size()
	}
	return n
}

// Ancestors returns the refs this bundle's records point at.
func (b Bundle) Ancestors() []Ref {
	var out []Ref
	for _, r := range b.Records {
		if r.IsXref() {
			out = append(out, r.Xref)
		}
	}
	return out
}

// Node is one materialized DAG node.
type Node struct {
	Ref     Ref
	Type    ObjectType
	Name    string
	Records []Record
}

// Bundle converts the node back into the transferable form without copying:
// the bundle shares the node's records. They are read-only — neither the
// bundle's holder nor the node's owner may change a record in place — and
// the slice is capacity-capped, so appending to the bundle's records copies
// them and leaves the node untouched, while records the node gains later do
// not show in the bundle.
func (n *Node) Bundle() Bundle {
	return Bundle{Ref: n.Ref, Type: n.Type, Name: n.Name, Records: n.Records[:len(n.Records):len(n.Records)]}
}

// Graph is an in-memory provenance DAG, used by the collector (as the
// client-side cache) and by tests and examples that analyse provenance.
type Graph struct {
	nodes map[Ref]*Node
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{nodes: make(map[Ref]*Node)}
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Node returns the node for ref, or nil.
func (g *Graph) Node(ref Ref) *Node { return g.nodes[ref] }

// Nodes returns every node, ordered by ref string for determinism.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return refLess(out[i].Ref, out[j].Ref) })
	return out
}

func refLess(a, b Ref) bool {
	for i := range a.UUID {
		if a.UUID[i] != b.UUID[i] {
			return a.UUID[i] < b.UUID[i]
		}
	}
	return a.Version < b.Version
}

// Add inserts a node. It rejects duplicate refs and invalid versions.
func (g *Graph) Add(n *Node) error {
	if n.Ref.Version < 1 {
		return fmt.Errorf("prov: node %s has version < 1", n.Ref)
	}
	if _, dup := g.nodes[n.Ref]; dup {
		return fmt.Errorf("prov: duplicate node %s", n.Ref)
	}
	g.nodes[n.Ref] = n
	return nil
}

// AddBundle inserts a bundle as a node.
func (g *Graph) AddBundle(b Bundle) error {
	return g.Add(&Node{Ref: b.Ref, Type: b.Type, Name: b.Name, Records: b.Records})
}

// Parents returns the refs ref directly depends on.
func (g *Graph) Parents(ref Ref) []Ref {
	n := g.nodes[ref]
	if n == nil {
		return nil
	}
	return Bundle{Records: n.Records}.Ancestors()
}

// Children returns the refs that directly depend on ref.
func (g *Graph) Children(ref Ref) []Ref {
	var out []Ref
	for _, n := range g.Nodes() {
		for _, r := range n.Records {
			if r.IsXref() && r.Xref == ref {
				out = append(out, n.Ref)
				break
			}
		}
	}
	return out
}

// Reachable reports whether to can be reached from from along dependency
// edges (i.e. whether to is an ancestor of from).
func (g *Graph) Reachable(from, to Ref) bool {
	if from == to {
		return true
	}
	seen := map[Ref]bool{from: true}
	stack := []Ref{from}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.Parents(cur) {
			if p == to {
				return true
			}
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	return false
}

// AncestorClosure returns every ancestor of ref (excluding ref itself).
func (g *Graph) AncestorClosure(ref Ref) []Ref {
	var out []Ref
	seen := map[Ref]bool{ref: true}
	stack := []Ref{ref}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.Parents(cur) {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
				stack = append(stack, p)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return refLess(out[i], out[j]) })
	return out
}

// DescendantClosure returns every node that transitively depends on ref.
func (g *Graph) DescendantClosure(ref Ref) []Ref {
	// Build a reverse index once.
	children := make(map[Ref][]Ref, len(g.nodes))
	for r, n := range g.nodes {
		for _, rec := range n.Records {
			if rec.IsXref() {
				children[rec.Xref] = append(children[rec.Xref], r)
			}
		}
	}
	var out []Ref
	seen := map[Ref]bool{ref: true}
	stack := []Ref{ref}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range children[cur] {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
				stack = append(stack, c)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return refLess(out[i], out[j]) })
	return out
}

// CheckAcyclic verifies the DAG invariant and returns an error naming a node
// on a cycle if one exists.
func (g *Graph) CheckAcyclic() error {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[Ref]int, len(g.nodes))
	var visit func(Ref) error
	visit = func(r Ref) error {
		color[r] = grey
		for _, p := range g.Parents(r) {
			switch color[p] {
			case grey:
				return fmt.Errorf("prov: cycle through %s", p)
			case white:
				if err := visit(p); err != nil {
					return err
				}
			}
		}
		color[r] = black
		return nil
	}
	for r := range g.nodes {
		if color[r] == white {
			if err := visit(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// Dangling returns references that point at nodes missing from the graph —
// the multi-object causal-ordering violations of §3.
func (g *Graph) Dangling() []Ref {
	seen := make(map[Ref]bool)
	var out []Ref
	for _, n := range g.nodes {
		for _, rec := range n.Records {
			if rec.IsXref() {
				if _, ok := g.nodes[rec.Xref]; !ok && !seen[rec.Xref] {
					seen[rec.Xref] = true
					out = append(out, rec.Xref)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return refLess(out[i], out[j]) })
	return out
}

// TopoOrder returns the nodes ancestors-first. It assumes acyclicity.
func (g *Graph) TopoOrder() []*Node {
	order := make([]*Node, 0, len(g.nodes))
	state := make(map[Ref]int, len(g.nodes))
	var visit func(Ref)
	visit = func(r Ref) {
		state[r] = 1
		for _, p := range g.Parents(r) {
			if state[p] == 0 {
				if _, ok := g.nodes[p]; ok {
					visit(p)
				}
			}
		}
		state[r] = 2
		order = append(order, g.nodes[r])
	}
	for _, n := range g.Nodes() {
		if state[n.Ref] == 0 {
			visit(n.Ref)
		}
	}
	return order
}
