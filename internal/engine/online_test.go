package engine

import (
	"math/rand/v2"
	"testing"
)

// TestOnlineBuildPenaltyLandsOnTriggeringQuery verifies the online-indexing
// weakness the paper calls out: the query that closes the epoch pays the
// whole index build.
func TestOnlineBuildPenaltyLandsOnTriggeringQuery(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 52))
	vals := randomVals(rng, 500000, 1<<20)
	e := newEngineWithData(t, Config{Strategy: StrategyOnline}, vals)
	defer e.Close()

	var durs []int64
	for i := 0; i < 100; i++ { // the advisor's review period
		lo := rng.Int64N(1 << 20)
		r, err := e.Select("R", "A", lo, lo+1000)
		if err != nil {
			t.Fatal(err)
		}
		durs = append(durs, r.Elapsed.Nanoseconds())
	}
	// Query 100 closed the epoch and built the index: it must be the most
	// expensive observation by a clear margin over the median scan.
	last := durs[len(durs)-1]
	for i, d := range durs[:len(durs)-1] {
		if last < d {
			t.Fatalf("epoch-closing query (%d ns) cheaper than query %d (%d ns)", last, i, d)
		}
	}
	// And queries after the build are far cheaper than scans.
	r, _ := e.Select("R", "A", 1000, 2000)
	if r.Elapsed.Nanoseconds() > durs[0]/10 {
		t.Fatalf("post-build query %v not much cheaper than scan %dns", r.Elapsed, durs[0])
	}
}

// TestOnlineDropsUnusedIndex drives two columns: one hot, one that goes
// cold after its index is built. The advisor must drop the cold index.
func TestOnlineDropsUnusedIndex(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 54))
	e := New(Config{Strategy: StrategyOnline})
	defer e.Close()
	tab, _ := e.CreateTable("R")
	tab.AddColumnFromSlice("cold", randomVals(rng, 300000, 1<<20))
	tab.AddColumnFromSlice("hot", randomVals(rng, 300000, 1<<20))

	// Epoch 1 (100 queries): hammer "cold" so it gets an index.
	for i := 0; i < 100; i++ {
		if _, err := e.Select("R", "cold", 0, 1000); err != nil {
			t.Fatal(err)
		}
	}
	scCold, _ := e.column("R", "cold")
	if !scCold.HasSorted() {
		t.Fatal("cold column never indexed")
	}
	// Many epochs of "hot" queries only; cold's index must drop after 20
	// epochs without a query.
	for i := 0; i < 100*22; i++ {
		if _, err := e.Select("R", "hot", 0, 1000); err != nil {
			t.Fatal(err)
		}
	}
	if scCold.HasSorted() {
		t.Fatal("unused index never dropped")
	}
	for _, p := range scCold.Parts() {
		if p.Cracked() != nil {
			t.Fatalf("part %s keeps its copy after the drop", p.Name())
		}
	}
}

// TestOnlineIdleForceReview: during idle time the online strategy can run
// its review early and build indexes outside any query's critical path.
func TestOnlineIdleForceReview(t *testing.T) {
	rng := rand.New(rand.NewPCG(55, 56))
	vals := randomVals(rng, 400000, 1<<20)
	e := newEngineWithData(t, Config{Strategy: StrategyOnline}, vals)
	defer e.Close()
	// A few scans, far from the epoch boundary.
	for i := 0; i < 30; i++ {
		if _, err := e.Select("R", "A", 0, 5000); err != nil {
			t.Fatal(err)
		}
	}
	actions, _ := e.IdleActions(1)
	if actions != 1 {
		t.Fatalf("idle review built %d indexes, want 1", actions)
	}
	sc, _ := e.column("R", "A")
	if !sc.HasSorted() {
		t.Fatal("forced review did not build")
	}
}
