package costmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDistance(t *testing.T) {
	p := Params{TargetPieceSize: 1024}
	if d := p.Distance(1024); d != 0 {
		t.Fatalf("at target: %f", d)
	}
	if d := p.Distance(512); d != 0 {
		t.Fatalf("below target: %f", d)
	}
	if d := p.Distance(2048); math.Abs(d-1) > 1e-9 {
		t.Fatalf("one halving away: %f", d)
	}
	if d := p.Distance(1024 * 16); math.Abs(d-4) > 1e-9 {
		t.Fatalf("four halvings away: %f", d)
	}
	if d := p.Distance(0); d != 0 {
		t.Fatalf("zero piece size: %f", d)
	}
}

func TestDefaultTarget(t *testing.T) {
	var p Params
	if d := p.Distance(DefaultTargetPieceSize * 2); math.Abs(d-1) > 1e-9 {
		t.Fatalf("default target not applied: %f", d)
	}
}

func TestScoreWeighting(t *testing.T) {
	p := Params{TargetPieceSize: 1024}
	hot := p.Score(0.8, 1<<20)
	cold := p.Score(0.1, 1<<20)
	if hot <= cold {
		t.Fatal("frequency weighting inverted")
	}
	if s := p.Score(0, 1<<20); s != 0 {
		t.Fatal("zero-frequency column scored")
	}
	if s := p.Score(0.5, 100); s != 0 {
		t.Fatal("converged column scored")
	}
}

func TestOperatorCosts(t *testing.T) {
	if ScanCost(1000) != 1000 {
		t.Fatal("scan cost")
	}
	if SortCost(1) != 1 || SortCost(0) != 0 {
		t.Fatal("degenerate sort cost")
	}
	if SortCost(1000) <= ScanCost(1000) {
		t.Fatal("sorting must cost more than one scan")
	}
	if SortCost(1<<20) != 20*(1<<20) {
		t.Fatalf("comparison sort of 2^20 values costs %f, want n·log2(n)", SortCost(1<<20))
	}
	n := 1 << 20
	if IndexedSelectCost(n, 0.01) >= ScanCost(n) {
		t.Fatal("indexed select must beat a scan at 1% selectivity")
	}
	if IndexedSelectCost(0, 0.5) != 0 {
		t.Fatal("empty column costs")
	}
	if CrackActionCost(4096) != PredicatedCrackFactor*4096 {
		t.Fatal("crack action cost")
	}
}

// TestBuildMustPayForSort pins the online build threshold to the comparison
// sort's price. A 1M-value column queried once per epoch at 1% selectivity
// saves about 0.99M per query, 9.9M over the horizon: less than its
// n·log2 n ≈ 19.9M build, so it does not pay (a 9n price would have). Three
// queries per epoch save 29.7M and do pay.
func TestBuildMustPayForSort(t *testing.T) {
	if BuildPays(1_000_000, 1, 0.01) || !BuildPays(1_000_000, 3, 0.01) {
		t.Fatal("1M values at 1%: one query per epoch must not pay for the sort, three must")
	}
}

// TestTinyColumnNotWorthIndexing: on 8 values two binary searches cost more
// than the scan they replace, so no load pays for a build; nor does any load
// on an empty column.
func TestTinyColumnNotWorthIndexing(t *testing.T) {
	if BuildPays(8, 1<<20, 0.5) || BuildPays(0, 1<<20, 0) {
		t.Fatal("2^20 queries per epoch pay for an index on 8 or 0 values")
	}
}

// TestSelectivityClamped: a selectivity below 0 buys no more than the
// cheapest indexed select, and above 1 the index cannot beat the scan that
// returns everything. One query per epoch on 1M values does not pay at
// selectivity 0, but would at an unclamped -5.
func TestSelectivityClamped(t *testing.T) {
	for _, queries := range []int{1, 2, 100, 1 << 20} {
		if BuildPays(1_000_000, queries, -5) != BuildPays(1_000_000, queries, 0) ||
			BuildPays(1_000_000, queries, 42) != BuildPays(1_000_000, queries, 1) {
			t.Fatalf("%d queries per epoch: selectivities -5 and 42 decide unlike 0 and 1", queries)
		}
	}
	if !BuildPays(1_000_000, 100, -5) || BuildPays(1_000_000, 1<<20, 42) {
		t.Fatal("clamped selectivity: 100 selects at 0 must pay, none at 1 may")
	}
}

func TestPropertyDistanceMonotone(t *testing.T) {
	f := func(targetRaw uint16, aRaw, bRaw uint32) bool {
		p := Params{TargetPieceSize: int(targetRaw) + 1}
		a, b := float64(aRaw), float64(bRaw)
		if a > b {
			a, b = b, a
		}
		da, db := p.Distance(a), p.Distance(b)
		if da < 0 || db < 0 {
			return false
		}
		return da <= db
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
