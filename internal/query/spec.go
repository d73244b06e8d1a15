package query

import (
	"fmt"
	"strconv"
	"strings"

	"passcloud/internal/prov"
	"passcloud/internal/uuid"
)

// Direction selects what a Spec emits relative to its roots.
type Direction uint8

// Traversal directions.
const (
	// Self emits the resolved root set itself — the "find" shape
	// (FindByAttr, existence probes).
	Self Direction = iota
	// Versions emits every recorded version of the roots' objects — the
	// per-object shape of Q2 and ReadProvenance. Roots with no recorded
	// versions are skipped like ghost refs; if NO root has any, the query
	// fails with core.ErrNoProvenance (Q2's contract).
	Versions
	// Ancestors walks dependency edges upward and emits the roots (depth 0)
	// plus their transitive ancestors, level by level — the closure the
	// causal-ordering walk and the debugging use cases need. References to
	// nodes that were never recorded (dangling ancestors) are skipped.
	Ancestors
	// Descendants walks dependency edges downward and emits everything
	// derived from the roots, level by level, excluding the roots
	// themselves — the shape of Q3 (depth 1) and Q4 (unbounded). On the
	// database backend descendants follow input edges (the indexed reverse
	// direction of §4.3.2's schema); on the store backend the local graph
	// evaluation follows every cross-reference, exactly as the paper's
	// scripts did on each backend.
	Descendants
	// All ignores the roots and emits every recorded node — Q1.
	All
)

// String names the direction the way ParseSpec spells it.
func (d Direction) String() string {
	switch d {
	case Self:
		return "self"
	case Versions:
		return "versions"
	case Ancestors:
		return "ancestors"
	case Descendants:
		return "descendants"
	case All:
		return "all"
	}
	return "unknown"
}

// Projection selects how much of each matched node a Spec emits.
type Projection uint8

// Projections.
const (
	// ProjectRefs emits node identities only; traversal plans may then use
	// itemName()-only SELECTs, the cheapest request shape.
	ProjectRefs Projection = iota
	// ProjectBundles emits full provenance bundles.
	ProjectBundles
)

// AttrMatch is one attribute equality a root selector requires.
type AttrMatch struct {
	Attr  string
	Value string
}

// Roots selects the starting node set of a query. The selector kinds
// combine: every path, uuid and ref contributes, and an attribute predicate
// (all matches ANDed) contributes every node satisfying it. The zero value
// selects nothing, which is only valid with Direction All.
type Roots struct {
	// Paths are data-object mount paths; each resolves through the primary
	// object's metadata link (one HEAD) to its current (uuid, version).
	Paths []string
	// UUIDs select objects directly; for traversals every recorded version
	// of the object joins the root set.
	UUIDs []uuid.UUID
	// Refs select exact node versions.
	Refs []prov.Ref
	// Attrs selects nodes whose provenance carries every listed attribute
	// equality — an indexed SELECT on the database backend, a local
	// evaluation over the scanned graph on the store backend.
	Attrs []AttrMatch
}

// IsZero reports whether no selector is set.
func (r Roots) IsZero() bool {
	return len(r.Paths) == 0 && len(r.UUIDs) == 0 && len(r.Refs) == 0 && len(r.Attrs) == 0
}

// Spec is a declarative provenance query: which nodes to start from, which
// way to walk, how far, what to keep and what to emit. Q1–Q4 of §5.3 are
// four particular Specs (see the Engine wrappers); everything the examples
// and tools previously hand-rolled against the backends composes from the
// same five fields.
type Spec struct {
	Roots     Roots
	Direction Direction
	// MaxDepth bounds traversal depth for Ancestors/Descendants: 1 keeps
	// direct children/parents, 0 (or negative) means unbounded. Other
	// directions ignore it.
	MaxDepth int
	// Filter keeps only matching nodes in the emitted results. Traversal is
	// NOT pruned by the filter: a filtered-out node still conducts the walk
	// (Q3 filtered to files must still count outputs reached through
	// intermediate process nodes).
	Filter *Filter
	// Project selects refs-only or full-bundle emission.
	Project Projection
	// Workers bounds the fan-out of parallel plan stages (store GETs,
	// scatter-gather IN batches); 0 means the engine default.
	Workers int
}

// Result is one emitted node. Bundle is populated for ProjectBundles (and
// whenever the plan had to fetch it anyway, e.g. to evaluate a filter);
// treat it as read-only — it may be shared with the engine's cache.
type Result struct {
	Ref    prov.Ref
	Depth  int // traversal depth; 0 for roots and non-traversal directions
	Bundle *prov.Bundle
}

// Filter is a composable predicate over node type, name and attributes,
// evaluated client-side against full bundles on every backend.
type Filter struct {
	op          string // "and", "or", "not", "type", "name", "attr"
	left, right *Filter
	typ         prov.ObjectType
	attr, value string
}

// TypeIs matches nodes of the given object type.
func TypeIs(t prov.ObjectType) *Filter { return &Filter{op: "type", typ: t} }

// NameIs matches nodes whose recorded name equals name.
func NameIs(name string) *Filter { return &Filter{op: "name", value: name} }

// AttrEq matches nodes carrying attr = value; cross-reference records
// compare their uuid_version form.
func AttrEq(attr, value string) *Filter { return &Filter{op: "attr", attr: attr, value: value} }

// And matches when both filters match.
func And(l, r *Filter) *Filter { return &Filter{op: "and", left: l, right: r} }

// Or matches when either filter matches.
func Or(l, r *Filter) *Filter { return &Filter{op: "or", left: l, right: r} }

// Not inverts a filter.
func Not(f *Filter) *Filter { return &Filter{op: "not", left: f} }

// Match evaluates the filter against one bundle. A nil filter matches
// everything.
func (f *Filter) Match(b *prov.Bundle) bool {
	if f == nil {
		return true
	}
	switch f.op {
	case "and":
		return f.left.Match(b) && f.right.Match(b)
	case "or":
		return f.left.Match(b) || f.right.Match(b)
	case "not":
		return !f.left.Match(b)
	case "type":
		return b.Type == f.typ
	case "name":
		return b.Name == f.value
	case "attr":
		return hasRecord(b.Records, f.attr, f.value)
	}
	return false
}

// hasRecord reports whether records carry attr = value; cross-reference
// records compare their uuid_version form.
func hasRecord(records []prov.Record, attr, value string) bool {
	for _, r := range records {
		if r.Attr != attr {
			continue
		}
		if r.IsXref() {
			if r.Xref.String() == value {
				return true
			}
		} else if r.Value == value {
			return true
		}
	}
	return false
}

// String renders the filter in the ParseSpec syntax.
func (f *Filter) String() string {
	if f == nil {
		return "<none>"
	}
	switch f.op {
	case "and":
		return "(" + f.left.String() + " and " + f.right.String() + ")"
	case "or":
		return "(" + f.left.String() + " or " + f.right.String() + ")"
	case "not":
		return "not " + f.left.String()
	case "type":
		return "type:" + f.typ.String()
	case "name":
		return "name:" + f.value
	case "attr":
		return "attr:" + f.attr + "=" + f.value
	}
	return "?"
}

// ParseSpec builds a Spec from the token language cmd/provctl's query
// command speaks. Each token is independent and order-free:
//
//	path:<mount-path>      root: a data object (repeatable)
//	uuid:<uuid>            root: an object uuid (repeatable)
//	ref:<uuid_version>     root: an exact node version (repeatable)
//	attr:<name>=<value>    root: attribute equality, ANDed (repeatable)
//	dir=self|versions|ancestors|descendants|all   (default self; all if no roots)
//	depth=<n>              traversal depth bound (0 = unbounded)
//	filter=type:<t>|name:<v>|attr:<a>=<v>         ANDed when repeated
//	project=refs|bundles   (default refs)
//	workers=<n>            fan-out bound
func ParseSpec(tokens []string) (Spec, error) {
	var spec Spec
	dirSet := false
	for _, tok := range tokens {
		switch {
		case strings.HasPrefix(tok, "path:"):
			spec.Roots.Paths = append(spec.Roots.Paths, strings.TrimPrefix(tok, "path:"))
		case strings.HasPrefix(tok, "uuid:"):
			u, err := uuid.Parse(strings.TrimPrefix(tok, "uuid:"))
			if err != nil {
				return Spec{}, fmt.Errorf("query: bad root %q: %v", tok, err)
			}
			spec.Roots.UUIDs = append(spec.Roots.UUIDs, u)
		case strings.HasPrefix(tok, "ref:"):
			r, err := prov.ParseRef(strings.TrimPrefix(tok, "ref:"))
			if err != nil {
				return Spec{}, fmt.Errorf("query: bad root %q: %v", tok, err)
			}
			spec.Roots.Refs = append(spec.Roots.Refs, r)
		case strings.HasPrefix(tok, "attr:"):
			m, err := parseAttrMatch(strings.TrimPrefix(tok, "attr:"))
			if err != nil {
				return Spec{}, err
			}
			spec.Roots.Attrs = append(spec.Roots.Attrs, m)
		case strings.HasPrefix(tok, "dir="):
			dirSet = true
			switch strings.TrimPrefix(tok, "dir=") {
			case "self":
				spec.Direction = Self
			case "versions":
				spec.Direction = Versions
			case "ancestors":
				spec.Direction = Ancestors
			case "descendants":
				spec.Direction = Descendants
			case "all":
				spec.Direction = All
			default:
				return Spec{}, fmt.Errorf("query: unknown direction %q", tok)
			}
		case strings.HasPrefix(tok, "depth="):
			n, err := strconv.Atoi(strings.TrimPrefix(tok, "depth="))
			if err != nil {
				return Spec{}, fmt.Errorf("query: bad depth %q", tok)
			}
			spec.MaxDepth = n
		case strings.HasPrefix(tok, "filter="):
			f, err := parseFilterToken(strings.TrimPrefix(tok, "filter="))
			if err != nil {
				return Spec{}, err
			}
			if spec.Filter == nil {
				spec.Filter = f
			} else {
				spec.Filter = And(spec.Filter, f)
			}
		case strings.HasPrefix(tok, "project="):
			switch strings.TrimPrefix(tok, "project=") {
			case "refs":
				spec.Project = ProjectRefs
			case "bundles":
				spec.Project = ProjectBundles
			default:
				return Spec{}, fmt.Errorf("query: unknown projection %q", tok)
			}
		case strings.HasPrefix(tok, "workers="):
			n, err := strconv.Atoi(strings.TrimPrefix(tok, "workers="))
			if err != nil {
				return Spec{}, fmt.Errorf("query: bad workers %q", tok)
			}
			spec.Workers = n
		default:
			return Spec{}, fmt.Errorf("query: unknown spec token %q", tok)
		}
	}
	if !dirSet && spec.Roots.IsZero() {
		spec.Direction = All
	}
	if spec.Direction != All && spec.Roots.IsZero() {
		return Spec{}, fmt.Errorf("query: direction %s needs at least one root", spec.Direction)
	}
	return spec, nil
}

// parseAttrMatch splits "name=value".
func parseAttrMatch(s string) (AttrMatch, error) {
	i := strings.IndexByte(s, '=')
	if i <= 0 {
		return AttrMatch{}, fmt.Errorf("query: bad attribute match %q (want name=value)", s)
	}
	return AttrMatch{Attr: s[:i], Value: s[i+1:]}, nil
}

// parseFilterToken parses one filter= value: type:<t>, name:<v> or
// attr:<a>=<v>.
func parseFilterToken(s string) (*Filter, error) {
	switch {
	case strings.HasPrefix(s, "type:"):
		t, err := prov.ParseObjectType(strings.TrimPrefix(s, "type:"))
		if err != nil {
			return nil, fmt.Errorf("query: %v", err)
		}
		return TypeIs(t), nil
	case strings.HasPrefix(s, "name:"):
		return NameIs(strings.TrimPrefix(s, "name:")), nil
	case strings.HasPrefix(s, "attr:"):
		m, err := parseAttrMatch(strings.TrimPrefix(s, "attr:"))
		if err != nil {
			return nil, err
		}
		return AttrEq(m.Attr, m.Value), nil
	}
	return nil, fmt.Errorf("query: unknown filter %q (want type:, name: or attr:)", s)
}
