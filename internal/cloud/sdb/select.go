package sdb

import (
	"fmt"
	"slices"
	"strings"
)

// Query is a parsed SELECT expression. The supported grammar covers what
// the paper's query workloads need, a practical subset of SimpleDB's:
//
//	SELECT (* | itemName() | attr[, attr...]) FROM domain
//	       [WHERE predicate] [LIMIT n]
//
//	predicate := clause { (AND|OR) clause }
//	clause    := '(' predicate ')'
//	           | name (=|!=|>|>=|<|<=) 'value'
//	           | name LIKE 'pattern%'        -- prefix match
//	           | name IN ('v1', 'v2', ...)
//	           | name IS NULL | name IS NOT NULL
//
// A comparison is true if any value of the (multi-valued) attribute
// satisfies it, matching SimpleDB semantics. itemName() may be compared too.
//
// Queries may also be built programmatically (the predicate constructors Eq,
// In, Like, Cmp, And, Or) and run with Domain.SelectQuery; repeated callers
// such as BFS traversals rebind values into one query shape instead of
// formatting and reparsing an expression per call.
type Query struct {
	Domain   string
	Fields   []string // nil means *
	ItemOnly bool     // SELECT itemName()
	Where    *Node
	Limit    int
	// Consistent requests a strongly consistent read (SimpleDB's
	// ConsistentRead flag, added to the service in early 2010): the response
	// reflects every write the domain acknowledged, with no staleness
	// window. The resharder's copy and GC scans depend on it — an
	// eventually consistent scan could miss a just-committed item and leak
	// or lose it across a migration.
	Consistent bool
}

// Node is a predicate tree node: either a boolean combinator or a leaf
// comparison. The parser produces the same structure that the predicate
// constructors build; a Node must not be mutated while queries using it run.
type Node struct {
	op          string // "and", "or", "in", or a comparison operator
	left, right *Node
	attr        string
	value       string
	values      []string // IN membership list
	isNull      bool
	notNull     bool
}

// ItemNameKey is the pseudo-attribute that compares against the item name.
const ItemNameKey = "itemName()"

// Eq returns the predicate attr = value.
func Eq(attr, value string) *Node { return &Node{op: "=", attr: attr, value: value} }

// In returns the predicate attr IN (values...) — equivalent to an OR chain
// of equalities on one attribute, the shape query fan-out batches use.
func In(attr string, values ...string) *Node { return &Node{op: "in", attr: attr, values: values} }

// Like returns the predicate attr LIKE pattern ('prefix%' matches prefixes).
func Like(attr, pattern string) *Node { return &Node{op: "like", attr: attr, value: pattern} }

// And conjoins two predicates.
func And(l, r *Node) *Node { return &Node{op: "and", left: l, right: r} }

// eval evaluates the predicate against one item.
func (n *Node) eval(it Item) bool {
	switch n.op {
	case "and":
		return n.left.eval(it) && n.right.eval(it)
	case "or":
		return n.left.eval(it) || n.right.eval(it)
	}
	if n.isNull || n.notNull {
		return n.notNull == slices.ContainsFunc(it.Attrs, func(a Attr) bool { return a.Name == n.attr })
	}
	if n.attr == ItemNameKey {
		return n.accepts(it.Name)
	}
	for _, a := range it.Attrs {
		if a.Name == n.attr && n.accepts(a.Value) {
			return true
		}
	}
	return false
}

// accepts reports whether one value of the leaf's attribute satisfies it.
func (n *Node) accepts(v string) bool {
	if n.op == "in" {
		return slices.Contains(n.values, v)
	}
	return compare(v, n.op, n.value)
}

// String renders the predicate in the SELECT grammar, values re-quoted, so
// plan descriptions can show exactly what was pushed to the server.
func (n *Node) String() string {
	quote := func(v string) string { return "'" + strings.ReplaceAll(v, "'", "''") + "'" }
	switch n.op {
	case "and", "or":
		return "(" + n.left.String() + " " + n.op + " " + n.right.String() + ")"
	case "in":
		qs := make([]string, len(n.values))
		for i, v := range n.values {
			qs[i] = quote(v)
		}
		return n.attr + " in (" + strings.Join(qs, ", ") + ")"
	}
	if n.isNull {
		return n.attr + " is null"
	}
	if n.notNull {
		return n.attr + " is not null"
	}
	return n.attr + " " + n.op + " " + quote(n.value)
}

// compare applies one comparison operator (string ordering, as SimpleDB).
func compare(have, op, want string) bool {
	switch op {
	case "=":
		return have == want
	case "!=":
		return have != want
	case ">":
		return have > want
	case ">=":
		return have >= want
	case "<":
		return have < want
	case "<=":
		return have <= want
	case "like":
		if strings.HasSuffix(want, "%") {
			return strings.HasPrefix(have, strings.TrimSuffix(want, "%"))
		}
		if strings.HasPrefix(want, "%") {
			return strings.HasSuffix(have, strings.TrimPrefix(want, "%"))
		}
		return have == want
	}
	return false
}

// ParseSelect parses a SELECT expression into a Query.
func ParseSelect(s string) (Query, error) {
	p := &parser{toks: lex(s)}
	q, err := p.parse()
	if err != nil {
		return Query{}, fmt.Errorf("sdb: parse %q: %w", s, err)
	}
	return q, nil
}

// lex splits the expression into tokens: words, quoted strings, operators
// and punctuation.
func lex(s string) []string {
	var toks []string
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n':
			i++
		case c == '\'':
			j := i + 1
			var b strings.Builder
			for j < len(s) {
				if s[j] == '\'' {
					if j+1 < len(s) && s[j+1] == '\'' { // escaped quote
						b.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				b.WriteByte(s[j])
				j++
			}
			toks = append(toks, "'"+b.String())
			i = j + 1
		case c == '(' || c == ')' || c == ',':
			// itemName() is one token.
			if c == '(' && len(toks) > 0 && strings.EqualFold(toks[len(toks)-1], "itemName") &&
				i+1 < len(s) && s[i+1] == ')' {
				toks[len(toks)-1] = ItemNameKey
				i += 2
				continue
			}
			toks = append(toks, string(c))
			i++
		case c == '=':
			toks = append(toks, "=")
			i++
		case c == '!' || c == '>' || c == '<':
			if i+1 < len(s) && s[i+1] == '=' {
				toks = append(toks, string(c)+"=")
				i += 2
			} else {
				toks = append(toks, string(c))
				i++
			}
		default:
			j := i
			for j < len(s) && !strings.ContainsRune(" \t\n'(),=!<>", rune(s[j])) {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		}
	}
	return toks
}

// parser is a tiny recursive-descent parser over the token stream.
type parser struct {
	toks []string
	pos  int
}

func (p *parser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *parser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) expectWord(w string) error {
	if !strings.EqualFold(p.peek(), w) {
		return fmt.Errorf("expected %s, got %q", w, p.peek())
	}
	p.pos++
	return nil
}

func (p *parser) parse() (Query, error) {
	var q Query
	if err := p.expectWord("select"); err != nil {
		return q, err
	}
	switch {
	case p.peek() == "*":
		p.pos++
	case p.peek() == ItemNameKey:
		q.ItemOnly = true
		p.pos++
	default:
		for {
			f := p.next()
			if f == "" || f == "," {
				return q, fmt.Errorf("bad field list")
			}
			q.Fields = append(q.Fields, f)
			if p.peek() != "," {
				break
			}
			p.pos++
		}
	}
	if err := p.expectWord("from"); err != nil {
		return q, err
	}
	q.Domain = strings.Trim(p.next(), "`")
	if q.Domain == "" {
		return q, fmt.Errorf("missing domain")
	}
	if strings.EqualFold(p.peek(), "where") {
		p.pos++
		n, err := p.parsePredicate()
		if err != nil {
			return q, err
		}
		q.Where = n
	}
	if strings.EqualFold(p.peek(), "limit") {
		p.pos++
		if _, err := fmt.Sscanf(p.next(), "%d", &q.Limit); err != nil {
			return q, fmt.Errorf("bad limit")
		}
	}
	if p.pos != len(p.toks) {
		return q, fmt.Errorf("trailing tokens at %q", p.peek())
	}
	return q, nil
}

// parsePredicate handles clause {(AND|OR) clause} with AND binding tighter.
func (p *parser) parsePredicate() (*Node, error) {
	return p.parseChain("or", func() (*Node, error) { return p.parseChain("and", p.parseClause) })
}

// parseChain parses operand {op operand}, grouping to the left.
func (p *parser) parseChain(op string, operand func() (*Node, error)) (*Node, error) {
	left, err := operand()
	if err != nil {
		return nil, err
	}
	for strings.EqualFold(p.peek(), op) {
		p.pos++
		right, err := operand()
		if err != nil {
			return nil, err
		}
		left = &Node{op: op, left: left, right: right}
	}
	return left, nil
}

func (p *parser) parseClause() (*Node, error) {
	if p.peek() == "(" {
		p.pos++
		n, err := p.parsePredicate()
		if err != nil {
			return nil, err
		}
		if p.next() != ")" {
			return nil, fmt.Errorf("missing )")
		}
		return n, nil
	}
	// A name, not a quoted value or punctuation, so String renders it back.
	attr := strings.Trim(p.next(), "`")
	if attr == "" || strings.ContainsRune("'(),=!<>", rune(attr[0])) {
		return nil, fmt.Errorf("missing attribute")
	}
	op := p.next()
	if strings.EqualFold(op, "is") {
		if strings.EqualFold(p.peek(), "not") {
			p.pos++
			if err := p.expectWord("null"); err != nil {
				return nil, err
			}
			return &Node{attr: attr, notNull: true}, nil
		}
		if err := p.expectWord("null"); err != nil {
			return nil, err
		}
		return &Node{attr: attr, isNull: true}, nil
	}
	if strings.EqualFold(op, "in") {
		if p.next() != "(" {
			return nil, fmt.Errorf("expected ( after in")
		}
		var values []string
		for {
			v := p.next()
			if !strings.HasPrefix(v, "'") {
				return nil, fmt.Errorf("in list values must be quoted, got %q", v)
			}
			values = append(values, strings.TrimPrefix(v, "'"))
			sep := p.next()
			if sep == ")" {
				break
			}
			if sep != "," {
				return nil, fmt.Errorf("expected , or ) in in list, got %q", sep)
			}
		}
		return &Node{op: "in", attr: attr, values: values}, nil
	}
	if strings.EqualFold(op, "like") {
		op = "like"
	}
	switch op {
	case "=", "!=", ">", ">=", "<", "<=", "like":
	default:
		return nil, fmt.Errorf("bad operator %q", op)
	}
	val := p.next()
	if !strings.HasPrefix(val, "'") {
		return nil, fmt.Errorf("comparison value must be quoted, got %q", val)
	}
	return &Node{op: op, attr: attr, value: strings.TrimPrefix(val, "'")}, nil
}
