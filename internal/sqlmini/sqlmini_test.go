package sqlmini

import (
	"math"
	"testing"

	"holistic/internal/engine"
)

func parseSelect(t *testing.T, in string) *SelectStmt {
	t.Helper()
	s, err := Parse(in)
	if err != nil {
		t.Fatalf("Parse(%q): %v", in, err)
	}
	sel, ok := s.(*SelectStmt)
	if !ok {
		t.Fatalf("Parse(%q) = %T", in, s)
	}
	return sel
}

func TestParsePaperTemplate(t *testing.T) {
	sel := parseSelect(t, "select A1 from R where A1 >= 10 and A1 < 20;")
	if sel.Table != "R" || sel.Column != "A1" || sel.Lo != 10 || sel.Hi != 20 || sel.Agg != AggValues {
		t.Fatalf("parsed %+v", sel)
	}
}

func TestParseOperators(t *testing.T) {
	cases := []struct {
		in     string
		lo, hi int64
	}{
		{"select A from R where A > 10 and A <= 20", 11, 21},
		{"select A from R where A = 7", 7, 8},
		{"select A from R where A between 3 and 9", 3, 10},
		{"select A from R where A >= 5", 5, math.MaxInt64},
		{"select A from R where A < 5", math.MinInt64, 5},
		{"select A from R", math.MinInt64, math.MaxInt64},
	}
	for _, c := range cases {
		sel := parseSelect(t, c.in)
		if sel.Lo != c.lo || sel.Hi != c.hi {
			t.Errorf("%q: [%d,%d) want [%d,%d)", c.in, sel.Lo, sel.Hi, c.lo, c.hi)
		}
	}
}

func TestParseAggregates(t *testing.T) {
	sel := parseSelect(t, "SELECT COUNT(*) FROM R WHERE A >= 1 AND A < 2")
	if sel.Agg != AggCount || sel.Column != "A" {
		t.Fatalf("%+v", sel)
	}
	sel = parseSelect(t, "select sum(B) from R where B < 100")
	if sel.Agg != AggSum || sel.Column != "B" {
		t.Fatalf("%+v", sel)
	}
}

func TestParseCaseInsensitiveKeywordsPreserveIdents(t *testing.T) {
	sel := parseSelect(t, "SeLeCt MyCol FrOm MyTab WhErE MyCol >= 1")
	if sel.Column != "MyCol" || sel.Table != "MyTab" {
		t.Fatalf("identifier case lost: %+v", sel)
	}
}

func TestParseInsertDelete(t *testing.T) {
	s, err := Parse("insert into R values (1, -2, 3);")
	if err != nil {
		t.Fatal(err)
	}
	ins := s.(*InsertStmt)
	if ins.Table != "R" || len(ins.Rows) != 1 || len(ins.Rows[0]) != 3 || ins.Rows[0][1] != -2 {
		t.Fatalf("%+v", ins)
	}
	s, err = Parse("delete from R where A = 5")
	if err != nil {
		t.Fatal(err)
	}
	del := s.(*DeleteStmt)
	if del.Table != "R" || del.Column != "A" || len(del.Values) != 1 || del.Values[0] != 5 {
		t.Fatalf("%+v", del)
	}
}

func TestParseBatchedInsert(t *testing.T) {
	s, err := Parse("INSERT INTO R VALUES (1, 2), (3, 4), (5, 6)")
	if err != nil {
		t.Fatal(err)
	}
	ins := s.(*InsertStmt)
	if len(ins.Rows) != 3 || ins.Rows[2][1] != 6 {
		t.Fatalf("%+v", ins)
	}
	// Mismatched group widths are rejected.
	if _, err := Parse("insert into R values (1, 2), (3)"); err == nil {
		t.Fatal("accepted ragged insert groups")
	}
}

func TestParseDeleteIn(t *testing.T) {
	s, err := Parse("DELETE FROM R WHERE A IN (5, 7, 9)")
	if err != nil {
		t.Fatal(err)
	}
	del := s.(*DeleteStmt)
	if del.Column != "A" || len(del.Values) != 3 || del.Values[2] != 9 {
		t.Fatalf("%+v", del)
	}
	if _, err := Parse("delete from R where A in ()"); err == nil {
		t.Fatal("accepted empty IN list")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"drop table R",
		"select from R",
		"select A from",
		"select A from R where",
		"select A from R where A ~ 5",
		"select A from R where A >= 5 and B < 10", // multi-column
		"select A from R where B >= 5",            // predicate != projection
		"select count(*) from R",                  // count needs a column
		"insert into R values 1",
		"insert into R values (1,)",
		"delete from R where A > 5",
		"select A from R extra",
		"select A from R where A >= 99999999999999999999", // overflow
		"select @ from R",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
}

func TestSaturatingUpperBound(t *testing.T) {
	sel := parseSelect(t, "select A from R where A <= 9223372036854775807")
	if sel.Hi != math.MaxInt64 {
		t.Fatalf("Hi = %d", sel.Hi)
	}
}

// TestExecRoundTrip executes every statement kind through Run, batched
// forms included, and checks each result's fields against the column.
func TestExecRoundTrip(t *testing.T) {
	e := engine.New(engine.Config{Strategy: engine.StrategyAdaptive})
	defer e.Close()
	tab, _ := e.CreateTable("R")
	if err := tab.AddColumnFromSlice("A", []int64{5, 15, 25, 35}); err != nil {
		t.Fatal(err)
	}
	run := func(in string) *Result {
		t.Helper()
		res, err := Run(e, in)
		if err != nil {
			t.Fatalf("Run(%q): %v", in, err)
		}
		return res
	}
	if res := run("select A from R where A >= 10 and A < 30"); res.Count != 2 || res.Sum != 40 {
		t.Fatalf("select: %+v", res)
	}
	if res := run("select count(*) from R where A between 5 and 15"); res.Agg != AggCount || res.Count != 2 {
		t.Fatalf("count: %+v", res)
	}
	if res := run("select sum(A) from R where A > 20"); res.Agg != AggSum || res.Sum != 60 {
		t.Fatalf("sum: %+v", res)
	}
	if res := run("insert into R values (45), (55)"); res.Kind != KindInsert || res.Count != 2 || res.Row != 4 {
		t.Fatalf("batched insert: %+v", res)
	}
	if res := run("delete from R where A = 5"); res.Kind != KindDelete || !res.Matched || res.Count != 1 {
		t.Fatalf("delete: %+v", res)
	}
	if res := run("delete from R where A in (45, 999, 55)"); !res.Matched || res.Count != 2 {
		t.Fatalf("IN delete: %+v", res)
	}
	if res := run("delete from R where A = 999"); res.Matched || res.Count != 0 {
		t.Fatalf("ghost delete: %+v", res)
	}
	if res := run("select count(*) from R where A >= 0 and A < 100"); res.Count != 3 {
		t.Fatalf("final: %+v", res)
	}
}

func TestExecErrors(t *testing.T) {
	e := engine.New(engine.Config{})
	defer e.Close()
	if _, err := Run(e, "select A from Ghost where A = 1"); err == nil {
		t.Fatal("missing table accepted")
	}
	if _, err := Run(e, "not sql"); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Run(e, "insert into Ghost values (1)"); err == nil {
		t.Fatal("insert into missing table accepted")
	}
	if _, err := Run(e, "delete from Ghost where A = 1"); err == nil {
		t.Fatal("delete from missing table accepted")
	}
}
