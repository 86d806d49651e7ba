package sqlmini

import (
	"fmt"
	"math"
	"strconv"
)

// Stmt is a parsed statement: *SelectStmt, *InsertStmt or *DeleteStmt.
type Stmt interface{ stmt() }

// Aggregate selects what a SELECT projects.
type Aggregate int

// Projection kinds.
const (
	AggValues Aggregate = iota // SELECT col — count and sum reported
	AggCount                   // SELECT COUNT(*)
	AggSum                     // SELECT SUM(col)
)

// SelectStmt is a range select compiled to the kernel's half-open interval.
type SelectStmt struct {
	Table  string
	Column string
	Lo, Hi int64
	Agg    Aggregate
}

func (*SelectStmt) stmt() {}

// InsertStmt appends one or more rows: INSERT INTO t VALUES (..)[, (..)]*.
// Rows holds every value group.
type InsertStmt struct {
	Table string
	Rows  [][]int64
}

func (*InsertStmt) stmt() {}

// DeleteStmt deletes, for each value in Values, the first live row whose
// column equals it: DELETE FROM t WHERE col = v, or the batched
// DELETE FROM t WHERE col IN (v1, v2, ...).
type DeleteStmt struct {
	Table  string
	Column string
	Values []int64
}

func (*DeleteStmt) stmt() {}

// parser holds the lexer and one token of lookahead.
type parser struct {
	lx  lexer
	tok token
}

func (p *parser) peek() token { return p.tok }

func (p *parser) next() token {
	t := p.tok
	if t.kind != tokEOF {
		p.tok = p.lx.next()
	}
	return t
}

func (p *parser) expectIdent(keyword string) error {
	t := p.next()
	if t.kind != tokIdent || t.text != keyword {
		return fmt.Errorf("sqlmini: expected %q at position %d, got %q", keyword, t.pos, t.raw)
	}
	return nil
}

func (p *parser) expectPunct(s string) error {
	t := p.next()
	if t.kind != tokPunct || t.text != s {
		return fmt.Errorf("sqlmini: expected %q at position %d, got %q", s, t.pos, t.raw)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.next()
	if t.kind != tokIdent {
		return "", fmt.Errorf("sqlmini: expected identifier at position %d, got %q", t.pos, t.raw)
	}
	return t.raw, nil
}

func (p *parser) number() (int64, error) {
	t := p.next()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("sqlmini: expected number at position %d, got %q", t.pos, t.raw)
	}
	v, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("sqlmini: bad number %q: %w", t.raw, err)
	}
	return v, nil
}

// Parse parses one statement, tolerating a trailing semicolon.
func Parse(input string) (Stmt, error) {
	p := parser{lx: lexer{input: input}}
	p.tok = p.lx.next()
	s, err := p.parseStatement()
	for p.tok.kind != tokEOF { // after a grammar error: a byte the lexer rejects outranks it
		p.tok = p.lx.next()
	}
	if p.lx.err != nil {
		return nil, p.lx.err
	}
	return s, err
}

func (p *parser) parseStatement() (Stmt, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("sqlmini: expected statement, got %q", t.raw)
	}
	var s Stmt
	var err error
	switch t.text {
	case "select":
		s, err = p.parseSelect()
	case "insert":
		s, err = p.parseInsert()
	case "delete":
		s, err = p.parseDelete()
	default:
		return nil, fmt.Errorf("sqlmini: unsupported statement %q", t.raw)
	}
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokPunct && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("sqlmini: trailing input at position %d: %q", p.peek().pos, p.peek().raw)
	}
	return s, nil
}

func (p *parser) parseSelect() (Stmt, error) {
	p.next() // SELECT
	sel := &SelectStmt{Lo: math.MinInt64, Hi: math.MaxInt64}
	t := p.next()
	switch {
	case t.kind == tokIdent && t.text == "count":
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if err := p.expectPunct("*"); err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		sel.Agg = AggCount
	case t.kind == tokIdent && t.text == "sum":
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		sel.Agg = AggSum
		sel.Column = col
	case t.kind == tokIdent:
		sel.Column = t.raw
	default:
		return nil, fmt.Errorf("sqlmini: expected projection at position %d, got %q", t.pos, t.raw)
	}
	if err := p.expectIdent("from"); err != nil {
		return nil, err
	}
	tab, err := p.ident()
	if err != nil {
		return nil, err
	}
	sel.Table = tab
	if p.peek().kind == tokIdent && p.peek().text == "where" {
		p.next()
		if err := p.parseWhere(sel); err != nil {
			return nil, err
		}
	}
	if sel.Column == "" {
		return nil, fmt.Errorf("sqlmini: COUNT(*) needs a WHERE clause naming the column")
	}
	return sel, nil
}

// parseWhere handles: col op n [AND col op n] | col BETWEEN a AND b.
// All comparisons must reference the same column (single-column kernel
// queries, as in the paper).
func (p *parser) parseWhere(sel *SelectStmt) error {
	col, err := p.ident()
	if err != nil {
		return err
	}
	if sel.Column == "" {
		sel.Column = col
	} else if sel.Column != col {
		return fmt.Errorf("sqlmini: predicate on %q but projection on %q", col, sel.Column)
	}
	if p.peek().kind == tokIdent && p.peek().text == "between" {
		p.next()
		a, err := p.number()
		if err != nil {
			return err
		}
		if err := p.expectIdent("and"); err != nil {
			return err
		}
		b, err := p.number()
		if err != nil {
			return err
		}
		sel.Lo, sel.Hi = a, addSat(b, 1) // SQL BETWEEN is inclusive
		return nil
	}
	if err := p.applyComparison(sel, col); err != nil {
		return err
	}
	for p.peek().kind == tokIdent && p.peek().text == "and" {
		p.next()
		c2, err := p.ident()
		if err != nil {
			return err
		}
		if c2 != col {
			return fmt.Errorf("sqlmini: multi-column predicates not supported (%q vs %q)", c2, col)
		}
		if err := p.applyComparison(sel, col); err != nil {
			return err
		}
	}
	return nil
}

// applyComparison folds one `col op n` term into the select's [Lo, Hi).
func (p *parser) applyComparison(sel *SelectStmt, col string) error {
	t := p.next()
	if t.kind != tokOp {
		return fmt.Errorf("sqlmini: expected comparison at position %d, got %q", t.pos, t.raw)
	}
	n, err := p.number()
	if err != nil {
		return err
	}
	switch t.text {
	case ">=":
		sel.Lo = maxI(sel.Lo, n)
	case ">":
		sel.Lo = maxI(sel.Lo, addSat(n, 1))
	case "<":
		sel.Hi = minI(sel.Hi, n)
	case "<=":
		sel.Hi = minI(sel.Hi, addSat(n, 1))
	case "=":
		sel.Lo = maxI(sel.Lo, n)
		sel.Hi = minI(sel.Hi, addSat(n, 1))
	default:
		return fmt.Errorf("sqlmini: unsupported operator %q", t.text)
	}
	return nil
}

func (p *parser) parseInsert() (Stmt, error) {
	p.next() // INSERT
	if err := p.expectIdent("into"); err != nil {
		return nil, err
	}
	tab, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectIdent("values"); err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: tab}
	for {
		row, err := p.parseValueGroup()
		if err != nil {
			return nil, err
		}
		if len(ins.Rows) > 0 && len(row) != len(ins.Rows[0]) {
			return nil, fmt.Errorf("sqlmini: insert group %d has %d values, first has %d",
				len(ins.Rows)+1, len(row), len(ins.Rows[0]))
		}
		ins.Rows = append(ins.Rows, row)
		if p.peek().kind == tokPunct && p.peek().text == "," {
			p.next()
			continue
		}
		break
	}
	return ins, nil
}

// parseValueGroup parses one parenthesised comma-separated number list.
func (p *parser) parseValueGroup() ([]int64, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var vals []int64
	for {
		v, err := p.number()
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
		t := p.next()
		if t.kind == tokPunct && t.text == "," {
			continue
		}
		if t.kind == tokPunct && t.text == ")" {
			return vals, nil
		}
		return nil, fmt.Errorf("sqlmini: expected ',' or ')' at position %d, got %q", t.pos, t.raw)
	}
}

func (p *parser) parseDelete() (Stmt, error) {
	p.next() // DELETE
	if err := p.expectIdent("from"); err != nil {
		return nil, err
	}
	tab, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectIdent("where"); err != nil {
		return nil, err
	}
	col, err := p.ident()
	if err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind == tokIdent && t.text == "in" {
		vals, err := p.parseValueGroup()
		if err != nil {
			return nil, err
		}
		return &DeleteStmt{Table: tab, Column: col, Values: vals}, nil
	}
	if t.kind != tokOp || t.text != "=" {
		return nil, fmt.Errorf("sqlmini: DELETE supports only equality or IN, got %q", t.raw)
	}
	v, err := p.number()
	if err != nil {
		return nil, err
	}
	return &DeleteStmt{Table: tab, Column: col, Values: []int64{v}}, nil
}

func maxI(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// addSat adds with saturation at the int64 maximum.
func addSat(a, b int64) int64 {
	if a > 0 && b > math.MaxInt64-a {
		return math.MaxInt64
	}
	return a + b
}
