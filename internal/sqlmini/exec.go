package sqlmini

import (
	"fmt"
	"time"

	"holistic/internal/engine"
)

// Kind identifies what a Result describes.
type Kind int

// Result kinds.
const (
	KindSelect Kind = iota
	KindInsert
	KindDelete
)

// String returns the kind's wire name.
func (k Kind) String() string {
	switch k {
	case KindSelect:
		return "select"
	case KindInsert:
		return "insert"
	case KindDelete:
		return "delete"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Result is the structured outcome of one statement — what the network
// server serialises onto the wire.
type Result struct {
	Kind Kind
	// Agg, Count and Sum are set for selects. Count doubles as the affected
	// row count for writes: rows appended by an insert (batched inserts
	// report the whole batch), rows removed by a delete.
	Agg   Aggregate
	Count int
	Sum   int64
	// Row is the id of the first row an insert appended (batch rows get
	// consecutive ids from it).
	Row uint32
	// Matched reports whether a delete found at least one row.
	Matched bool
	// Elapsed is the statement's execution time as seen by the caller.
	Elapsed time.Duration
}

// Run parses and executes one statement against the engine, returning the
// structured result.
func Run(e *engine.Engine, input string) (*Result, error) {
	stmt, err := Parse(input)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *SelectStmt:
		res, err := e.Select(s.Table, s.Column, s.Lo, s.Hi)
		if err != nil {
			return nil, err
		}
		return &Result{
			Kind:    KindSelect,
			Agg:     s.Agg,
			Count:   res.Count,
			Sum:     res.Sum,
			Elapsed: res.Elapsed,
		}, nil
	case *InsertStmt:
		start := time.Now()
		tab, err := e.Table(s.Table)
		if err != nil {
			return nil, err
		}
		row, err := tab.InsertRows(s.Rows)
		if err != nil {
			return nil, err
		}
		return &Result{Kind: KindInsert, Row: row, Count: len(s.Rows), Elapsed: time.Since(start)}, nil
	case *DeleteStmt:
		start := time.Now()
		tab, err := e.Table(s.Table)
		if err != nil {
			return nil, err
		}
		n, err := tab.DeleteWhereIn(s.Column, s.Values)
		if err != nil {
			return nil, err
		}
		return &Result{Kind: KindDelete, Matched: n > 0, Count: n, Elapsed: time.Since(start)}, nil
	default:
		return nil, fmt.Errorf("sqlmini: unhandled statement %T", stmt)
	}
}
