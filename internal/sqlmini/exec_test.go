package sqlmini

import (
	"errors"
	"testing"

	"holistic/internal/engine"
)

func newTestEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(engine.Config{Strategy: engine.StrategyAdaptive})
	t.Cleanup(e.Close)
	tab, err := e.CreateTable("r")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumnFromSlice("a", []int64{5, 15, 25, 35}); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRunStructuredSelect(t *testing.T) {
	e := newTestEngine(t)
	res, err := Run(e, "select a from r where a >= 10 and a < 30")
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindSelect || res.Agg != AggValues {
		t.Fatalf("kind=%v agg=%v", res.Kind, res.Agg)
	}
	if res.Count != 2 || res.Sum != 40 {
		t.Fatalf("count=%d sum=%d, want 2/40", res.Count, res.Sum)
	}
	if res.Elapsed < 0 {
		t.Fatalf("elapsed = %v", res.Elapsed)
	}

	res, err = Run(e, "select count(*) from r where a between 5 and 15")
	if err != nil || res.Agg != AggCount || res.Count != 2 {
		t.Fatalf("count(*): %+v %v", res, err)
	}
	res, err = Run(e, "select sum(a) from r where a > 20")
	if err != nil || res.Agg != AggSum || res.Sum != 60 {
		t.Fatalf("sum: %+v %v", res, err)
	}
}

func TestRunStructuredInsertDelete(t *testing.T) {
	e := newTestEngine(t)
	res, err := Run(e, "insert into r values (45)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindInsert || res.Row != 4 {
		t.Fatalf("insert result %+v, want row 4", res)
	}
	res, err = Run(e, "delete from r where a = 45")
	if err != nil || res.Kind != KindDelete || !res.Matched {
		t.Fatalf("delete: %+v %v", res, err)
	}
	res, err = Run(e, "delete from r where a = 999")
	if err != nil || res.Matched {
		t.Fatalf("ghost delete: %+v %v", res, err)
	}
	if res.Count != 0 {
		t.Fatalf("ghost delete removed %d rows", res.Count)
	}
}

func TestRunUnknownTableAndColumn(t *testing.T) {
	e := newTestEngine(t)
	if _, err := Run(e, "select a from ghost where a >= 1 and a < 2"); !errors.Is(err, engine.ErrNoTable) {
		t.Fatalf("unknown table: %v, want ErrNoTable", err)
	}
	if _, err := Run(e, "select b from r where b >= 1 and b < 2"); !errors.Is(err, engine.ErrNoColumn) {
		t.Fatalf("unknown column: %v, want ErrNoColumn", err)
	}
	if _, err := Run(e, "delete from r where b = 1"); !errors.Is(err, engine.ErrNoColumn) {
		t.Fatalf("delete unknown column: %v, want ErrNoColumn", err)
	}
	if _, err := Run(e, "insert into ghost values (1)"); !errors.Is(err, engine.ErrNoTable) {
		t.Fatalf("insert unknown table: %v, want ErrNoTable", err)
	}
}

func TestRunInsertArityMismatch(t *testing.T) {
	e := newTestEngine(t)
	if _, err := Run(e, "insert into r values (1, 2)"); !errors.Is(err, engine.ErrLengthMismatch) {
		t.Fatalf("arity mismatch: %v, want ErrLengthMismatch", err)
	}
}

func TestRunMalformedRanges(t *testing.T) {
	e := newTestEngine(t)
	bad := []string{
		"select a from r where a between 10",             // missing AND upper
		"select a from r where a between 10 and",         // missing upper bound
		"select a from r where a between ten and 20",     // non-numeric bound
		"select a from r where a >= ",                    // missing operand
		"select a from r where a >= 1 and a <",           // dangling operator
		"select a from r where a = 92233720368547758070", // overflow literal
		"select a from r where between 1 and 2",          // missing column
	}
	for _, in := range bad {
		if _, err := Run(e, in); err == nil {
			t.Errorf("Run(%q) accepted", in)
		}
	}
	// An inverted range is well-formed — it just selects nothing.
	res, err := Run(e, "select a from r where a >= 30 and a < 10")
	if err != nil {
		t.Fatalf("inverted range rejected: %v", err)
	}
	if res.Count != 0 || res.Sum != 0 {
		t.Fatalf("inverted range returned count=%d sum=%d", res.Count, res.Sum)
	}
}

func TestKindString(t *testing.T) {
	if KindSelect.String() != "select" || KindInsert.String() != "insert" || KindDelete.String() != "delete" {
		t.Fatal("kind wire names changed")
	}
	if Kind(42).String() != "kind(42)" {
		t.Fatalf("unknown kind string %q", Kind(42).String())
	}
}
