package engine

import (
	"math"
	"math/rand/v2"
	"testing"

	"holistic/internal/core"
)

// TestSelectIsOneObservation: partitions split a column's data, not its
// workload. The same selects — 300 on A, then 300 on B — leave A the same
// share of the tuner's attention on one shard and on four: the decay clock
// ticks once per select, not once per part. A select is one query on the
// column's count, and no part keeps a sketch of its own, so every part of a
// column bids alike.
func TestSelectIsOneObservation(t *testing.T) {
	rng := rand.New(rand.NewPCG(331, 332))
	a, b := randomVals(rng, 8000, 1<<16), randomVals(rng, 8000, 1<<16)
	share := map[int]float64{}
	for _, shards := range []int{1, 4} {
		e := newEngineWithData(t, Config{Strategy: StrategyHolistic, Seed: 1, Shards: shards}, a)
		defer e.Close()
		tab, _ := e.Table("R")
		if err := tab.AddColumnFromSlice("B", append([]int64{}, b...)); err != nil {
			t.Fatal(err)
		}
		q := rand.New(rand.NewPCG(333, 334))
		for _, col := range []string{"A", "B"} {
			for range 300 {
				lo := q.Int64N(1 << 16)
				if _, err := e.Select("R", col, lo, lo+1<<10); err != nil {
					t.Fatal(err)
				}
			}
		}
		sc, _ := e.column("R", "A")
		if n := len(sc.Parts()); n != shards {
			t.Fatalf("%d parts, want %d", n, shards)
		}
		share[shards] = float64(shards) * e.tuner.Frequency("R.A")
		for _, col := range []string{"R.A", "R.B"} {
			if got := e.tuner.Queries(col); got != 300 {
				t.Fatalf("shards %d: %s noted %d of 300 selects", shards, col, got)
			}
		}
		for _, p := range sc.Parts() {
			if f := e.tuner.Frequency(p.Name()); shards > 1 && f != 0 {
				t.Fatalf("shards %d: part %s has a sketch of its own, frequency %g", shards, p.Name(), f)
			}
		}
	}
	if math.Abs(share[1]-share[4]) > 1e-9 {
		t.Fatalf("A's share %.9f on one shard, %.9f on four", share[1], share[4])
	}
	// B's 300 selects decay A's mass by D^300 and add as much as A had.
	if d := math.Pow(core.Decay, 300); math.Abs(share[1]-d/(1+d)) > 1e-9 {
		t.Fatalf("A's share %.9f, want D^300/(1+D^300) = %.9f", share[1], d/(1+d))
	}
}
