package holistic_test

import (
	"testing"

	"holistic"
)

// These tests exercise the public API exactly as a downstream user would.

func TestPublicQuickstart(t *testing.T) {
	// TargetPieceSize is set below the column size: the default models a
	// 2 MiB cache, under which a 100k-value column needs no refinement.
	eng := holistic.New(holistic.Config{Strategy: holistic.StrategyHolistic, Seed: 1, TargetPieceSize: 1024})
	defer eng.Close()
	tab, err := eng.CreateTable("R")
	if err != nil {
		t.Fatal(err)
	}
	data := holistic.GenerateUniform(1, 100000, 1, 100001)
	if err := tab.AddColumnFromSlice("A", data); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Select("R", "A", 1000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	wc, ws := 0, int64(0)
	for _, v := range data {
		if v >= 1000 && v < 2000 {
			wc++
			ws += v
		}
	}
	if res.Count != wc || res.Sum != ws {
		t.Fatalf("select: %d/%d want %d/%d", res.Count, res.Sum, wc, ws)
	}
	if a, w := eng.IdleActions(50); a != 50 || w <= 0 {
		t.Fatalf("idle: %d actions %d work", a, w)
	}
	pieces, _, err := eng.PieceStats("R", "A")
	if err != nil || pieces < 10 {
		t.Fatalf("pieces %d err %v", pieces, err)
	}
}

func TestPublicStrategiesAndCapabilities(t *testing.T) {
	if len(holistic.Strategies()) != 5 {
		t.Fatal("strategy list")
	}
	caps := holistic.StrategyHolistic.Capabilities()
	if !caps.IncrementalIndexing || !caps.IdleTimeDuring {
		t.Fatalf("caps %+v", caps)
	}
	if holistic.StrategyAdaptive.String() != "adaptive" {
		t.Fatal("string name")
	}
}

func TestPublicWorkloadGenerators(t *testing.T) {
	u := holistic.NewUniformWorkload("R", "A", 0, 10000, 0.01, 3)
	h := holistic.NewHotspotWorkload("R", "B", 0, 10000, 0.01, 0.2, 0.9, 4)
	s := holistic.NewSequentialWorkload("R", "C", 0, 10000, 0.01, 0)
	rr := holistic.NewRoundRobinWorkload(u, h, s)
	cols := map[string]int{}
	for i := 0; i < 30; i++ {
		q := rr.Next()
		cols[q.Column]++
		if q.Lo >= q.Hi {
			t.Fatalf("malformed query %+v", q)
		}
	}
	if cols["A"] != 10 || cols["B"] != 10 || cols["C"] != 10 {
		t.Fatalf("round robin skewed: %v", cols)
	}
}

func TestPublicUpdatesFlow(t *testing.T) {
	eng := holistic.New(holistic.Config{Strategy: holistic.StrategyAdaptive})
	defer eng.Close()
	tab, _ := eng.CreateTable("T")
	if err := tab.AddColumnFromSlice("x", []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	eng.Select("T", "x", 0, 10)
	if _, err := tab.InsertRow(4); err != nil {
		t.Fatal(err)
	}
	if ok, _ := tab.DeleteWhere("x", 2); !ok {
		t.Fatal("delete failed")
	}
	res, _ := eng.Select("T", "x", 0, 10)
	if res.Count != 3 || res.Sum != 8 {
		t.Fatalf("after updates: %d/%d", res.Count, res.Sum)
	}
	if tab.Rows() != 3 {
		t.Fatalf("rows %d", tab.Rows())
	}
}

func TestPublicPhysicalDesign(t *testing.T) {
	eng := holistic.New(holistic.Config{Strategy: holistic.StrategyAdaptive})
	defer eng.Close()
	tab, _ := eng.CreateTable("R")
	tab.AddColumnFromSlice("A", holistic.GenerateUniform(9, 10000, 0, 10000))
	eng.Select("R", "A", 100, 500)
	ds := eng.DescribePhysicalDesign()
	if len(ds) != 1 || !ds[0].Cracked || ds[0].Pieces < 2 {
		t.Fatalf("design: %+v", ds)
	}
	if out := holistic.FormatPhysicalDesign(ds); out == "" {
		t.Fatal("empty design table")
	}
}

func TestPublicErrors(t *testing.T) {
	eng := holistic.New(holistic.Config{})
	defer eng.Close()
	if _, err := eng.Select("nope", "x", 0, 1); err == nil {
		t.Fatal("missing table accepted")
	}
	eng.CreateTable("T")
	if _, err := eng.CreateTable("T"); err == nil {
		t.Fatal("duplicate table accepted")
	}
}
