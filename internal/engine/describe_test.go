package engine

import (
	"strings"
	"testing"
)

func TestDescribePhysicalDesign(t *testing.T) {
	e := New(Config{Strategy: StrategyHolistic, Seed: 1, TargetPieceSize: 64})
	defer e.Close()
	tab, _ := e.CreateTable("R")
	tab.AddColumnFromSlice("b", []int64{1, 2, 3, 4, 5, 6, 7, 8})
	tab.AddColumnFromSlice("a", []int64{8, 7, 6, 5, 4, 3, 2, 1})

	ds := e.DescribePhysicalDesign()
	if len(ds) != 2 {
		t.Fatalf("designs: %+v", ds)
	}
	// Sorted by column name within the table.
	if ds[0].Column != "a" || ds[1].Column != "b" {
		t.Fatalf("order: %+v", ds)
	}
	if ds[0].Cracked || ds[0].FullIndex || ds[0].Pieces != 0 {
		t.Fatalf("fresh column design: %+v", ds[0])
	}

	// Crack column a, build full index on b, buffer an update.
	e.Select("R", "a", 3, 6)
	e.BuildFullIndex("R", "b")
	tab.InsertRow(9, 9)

	ds = e.DescribePhysicalDesign()
	a, b := ds[0], ds[1]
	if !a.Cracked || a.Pieces < 2 {
		t.Fatalf("a design: %+v", a)
	}
	if a.PendingInserts != 1 {
		t.Fatalf("a pending: %+v", a)
	}
	if !b.FullIndex || b.Cracked {
		t.Fatalf("b design: %+v", b)
	}
	if a.Rows != 9 || b.Rows != 9 {
		t.Fatalf("rows: %+v %+v", a, b)
	}

	out := FormatPhysicalDesign(ds)
	for _, want := range []string{"R.a", "R.b", "pieces", "pend-ins"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
}
