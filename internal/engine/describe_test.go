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
	cVals := []int64{5, 3, 8, 3, 1, 9, 2, 7}
	tab.AddColumnFromSlice("c", append([]int64{}, cVals...))

	ds := e.DescribePhysicalDesign()
	if len(ds) != 3 {
		t.Fatalf("designs: %+v", ds)
	}
	// Sorted by column name within the table.
	if ds[0].Column != "a" || ds[1].Column != "b" {
		t.Fatalf("order: %+v", ds)
	}
	if ds[0].Cracked || ds[0].FullIndex || ds[0].Pieces != 0 {
		t.Fatalf("fresh column design: %+v", ds[0])
	}

	// Crack column a, build full index on b, crack c and then sort it to
	// completion, buffer an update.
	e.Select("R", "a", 3, 6)
	e.BuildFullIndex("R", "b")
	e.Select("R", "c", 3, 6)
	e.BuildFullIndex("R", "c")
	tab.InsertRow(9, 9, 4)

	ds = e.DescribePhysicalDesign()
	a, b, c := ds[0], ds[1], ds[2]
	if !a.Cracked || a.Pieces < 2 {
		t.Fatalf("a design: %+v", a)
	}
	if a.PendingInserts != 1 {
		t.Fatalf("a pending: %+v", a)
	}
	if !b.FullIndex || b.Cracked {
		t.Fatalf("b design: %+v", b)
	}
	if !c.FullIndex || c.Cracked {
		t.Fatalf("c design: %+v", c)
	}
	scan := newEngineWithData(t, Config{Strategy: StrategyScan}, append(cVals, 4))
	defer scan.Close()
	for _, q := range [][2]int64{{3, 6}, {0, 100}, {3, 4}, {4, 5}, {9, 10}} {
		got, err := e.Select("R", "c", q[0], q[1])
		want, _ := scan.Select("R", "A", q[0], q[1])
		if err != nil || got.Count != want.Count || got.Sum != want.Sum {
			t.Fatalf("c %v: %+v, %v; scan %+v", q, got, err, want)
		}
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
