package engine

import (
	"math/rand/v2"
	"sync"
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
	sc, _ := e.column("R", "A")

	var durs []int64
	for i := 0; i < 100; i++ { // the review's epoch
		lo := rng.Int64N(1 << 20)
		r, err := e.Select("R", "A", lo, lo+1000)
		if err != nil {
			t.Fatal(err)
		}
		durs = append(durs, r.Elapsed.Nanoseconds())
		if built, closed := sc.HasSorted(), i == 99; built != closed {
			t.Fatalf("after select %d of the epoch: index built %v", i+1, built)
		}
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
// cold after its index is built. The review must drop the cold index,
// whether it built that index itself or BuildFullIndex did.
func TestOnlineDropsUnusedIndex(t *testing.T) {
	for _, builder := range []string{"review", "BuildFullIndex"} {
		t.Run(builder, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(53, 54))
			e := New(Config{Strategy: StrategyOnline})
			defer e.Close()
			tab, _ := e.CreateTable("R")
			tab.AddColumnFromSlice("cold", randomVals(rng, 300000, 1<<20))
			tab.AddColumnFromSlice("hot", randomVals(rng, 300000, 1<<20))
			if builder == "review" {
				// Epoch 1 (100 queries): hammer "cold" so it gets an index.
				for i := 0; i < 100; i++ {
					if _, err := e.Select("R", "cold", 0, 1000); err != nil {
						t.Fatal(err)
					}
				}
			} else if _, err := e.BuildFullIndex("R", "cold"); err != nil {
				t.Fatal(err)
			}
			scCold, _ := e.column("R", "cold")
			if !scCold.HasSorted() {
				t.Fatal("cold column never indexed")
			}
			// Many epochs of "hot" queries only; cold's index must drop after
			// 20 epochs without a query.
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
		})
	}
}

// TestOnlineIdleCountResetsOnRead: one read of an indexed column restarts
// its count of unread reviews. Read in the 19th epoch, one short of the
// drop, its index survives 19 more unread epochs and drops at the 20th.
func TestOnlineIdleCountResetsOnRead(t *testing.T) {
	rng := rand.New(rand.NewPCG(57, 58))
	e := newEngineWithData(t, Config{Strategy: StrategyOnline}, randomVals(rng, 2000, 1<<20))
	defer e.Close()
	tab, _ := e.Table("R")
	tab.AddColumnFromSlice("B", randomVals(rng, 2000, 1<<20))
	if _, err := e.BuildFullIndex("R", "A"); err != nil {
		t.Fatal(err)
	}
	sc, _ := e.column("R", "A")
	for ep := 1; ep <= 39; ep++ {
		for i := 0; i < 100; i++ {
			col := "B"
			if ep == 19 && i == 0 {
				col = "A"
			}
			if _, err := e.Select("R", col, 0, 1<<19); err != nil {
				t.Fatal(err)
			}
		}
		if sc.HasSorted() != (ep < 39) {
			t.Fatalf("after epoch %d, read at epoch 19: index kept %v", ep, sc.HasSorted())
		}
	}
}

// TestOnlineIndexesColumnGrownByInsert: a column created empty and grown by
// INSERT is reviewed at its live size, not the size it was created with.
func TestOnlineIndexesColumnGrownByInsert(t *testing.T) {
	rng := rand.New(rand.NewPCG(59, 60))
	e := newEngineWithData(t, Config{Strategy: StrategyOnline}, nil)
	defer e.Close()
	tab, _ := e.Table("R")
	var vals []int64
	for b := 0; b < 300; b++ {
		batch := randomVals(rng, 1000, 1<<20)
		rows := make([][]int64, len(batch))
		for i, v := range batch {
			rows[i] = []int64{v}
		}
		if _, err := tab.InsertRows(rows); err != nil {
			t.Fatal(err)
		}
		vals = append(vals, batch...)
	}
	for i := 0; i < 100; i++ {
		lo := rng.Int64N(1 << 20)
		r, err := e.Select("R", "A", lo, lo+1000)
		if c, s := naiveRange(vals, lo, lo+1000); err != nil || r.Count != c || r.Sum != s {
			t.Fatalf("select %d [%d, %d): %d/%d (%v), want %d/%d", i, lo, lo+1000, r.Count, r.Sum, err, c, s)
		}
	}
	if sc, _ := e.column("R", "A"); !sc.HasSorted() {
		t.Fatal("a column grown to 300 000 rows by INSERT was never indexed")
	}
}

// TestOnlineReviewRacesSelects: four goroutines select on one column while
// another column's index, built by BuildFullIndex, goes unread. Each epoch
// is reviewed exactly once however the selects interleave: the index is
// still there after 19 epochs and dropped by the 20th, and every answer,
// through the concurrent build of the hot column's index, matches a scan.
func TestOnlineReviewRacesSelects(t *testing.T) {
	const workers, width = 4, 1 << 14
	rng := rand.New(rand.NewPCG(61, 62))
	hot := randomVals(rng, 20000, 1<<20)
	e := newEngineWithData(t, Config{Strategy: StrategyOnline, Shards: 2}, hot)
	defer e.Close()
	ref := newEngineWithData(t, Config{Strategy: StrategyScan}, hot)
	tab, _ := e.Table("R")
	tab.AddColumnFromSlice("cold", randomVals(rng, 20000, 1<<20))
	if _, err := e.BuildFullIndex("R", "cold"); err != nil {
		t.Fatal(err)
	}
	sc, _ := e.column("R", "cold")
	for _, epochs := range []int{19, 1} {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(seed, 63))
				for i := 0; i < epochs*100/workers; i++ {
					lo := rng.Int64N(1 << 20)
					got, err := e.Select("R", "A", lo, lo+width)
					want, _ := ref.Select("R", "A", lo, lo+width)
					if err != nil || got.Count != want.Count || got.Sum != want.Sum {
						t.Errorf("select [%d, %d): %d/%d (%v), scan %d/%d", lo, lo+width, got.Count, got.Sum, err, want.Count, want.Sum)
						return
					}
				}
			}(uint64(w))
		}
		wg.Wait()
		if sc.HasSorted() != (epochs == 19) {
			t.Fatalf("unread index after %d more epochs: kept %v; dropped at the 20th", epochs, sc.HasSorted())
		}
	}
}

// TestOnlineIdleForceReview: during idle time the online strategy can run
// its review early and build indexes outside any query's critical path. The
// forced review consumes the epoch, and the same load on the now indexed
// column builds nothing again.
func TestOnlineIdleForceReview(t *testing.T) {
	rng := rand.New(rand.NewPCG(55, 56))
	vals := randomVals(rng, 400000, 1<<20)
	e := newEngineWithData(t, Config{Strategy: StrategyOnline}, vals)
	defer e.Close()
	sc, _ := e.column("R", "A")
	for _, want := range []int{1, 0} {
		// A few scans, far from the epoch boundary.
		for i := 0; i < 30; i++ {
			if _, err := e.Select("R", "A", 0, 5000); err != nil {
				t.Fatal(err)
			}
		}
		if actions, _ := e.IdleActions(1); actions != want || !sc.HasSorted() {
			t.Fatalf("idle review changed %d indexes, want %d; index built %v", actions, want, sc.HasSorted())
		}
	}
}

// TestOnlineHotColumnGetsIndex: one epoch of selects on one of two columns
// builds a full index on that column only.
func TestOnlineHotColumnGetsIndex(t *testing.T) {
	rng := rand.New(rand.NewPCG(65, 66))
	e := newEngineWithData(t, Config{Strategy: StrategyOnline}, randomVals(rng, 300000, 1<<20))
	defer e.Close()
	tab, _ := e.Table("R")
	tab.AddColumnFromSlice("B", randomVals(rng, 300000, 1<<20))
	for i := 0; i < 100; i++ {
		if _, err := e.Select("R", "A", 1000, 1000+1<<20/100); err != nil {
			t.Fatal(err)
		}
	}
	hot, _ := e.column("R", "A")
	cold, _ := e.column("R", "B")
	if !hot.HasSorted() || cold.HasSorted() {
		t.Fatalf("after one epoch on A: A indexed %v, B indexed %v; want A only", hot.HasSorted(), cold.HasSorted())
	}
}

// TestOnlineIndexedColumnNotRebuilt: the same load on an indexed and an
// unindexed column builds only the missing index; the existing one is kept.
func TestOnlineIndexedColumnNotRebuilt(t *testing.T) {
	rng := rand.New(rand.NewPCG(67, 68))
	e := newEngineWithData(t, Config{Strategy: StrategyOnline}, randomVals(rng, 300000, 1<<20))
	defer e.Close()
	tab, _ := e.Table("R")
	tab.AddColumnFromSlice("B", randomVals(rng, 300000, 1<<20))
	if _, err := e.BuildFullIndex("R", "A"); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"A", "B"} {
		for i := 0; i < 33; i++ {
			if _, err := e.Select("R", col, 1000, 1000+1<<20/100); err != nil {
				t.Fatal(err)
			}
		}
	}
	if changed, _ := e.IdleActions(1); changed != 1 {
		t.Fatalf("review changed %d indexes, want 1 (B built, A untouched)", changed)
	}
	for _, col := range []string{"A", "B"} {
		if sc, _ := e.column("R", col); !sc.HasSorted() {
			t.Fatalf("column %s has no full index, want both", col)
		}
	}
}

// fullIndexes reads back through DescribePhysicalDesign which columns carry
// a full index.
func fullIndexes(e *Engine) map[string]bool {
	out := map[string]bool{}
	for _, d := range e.DescribePhysicalDesign() {
		out[d.Column] = d.FullIndex
	}
	return out
}

// selectOnePercent sends n selects of about 1% selectivity on R.col.
func selectOnePercent(t *testing.T, e *Engine, col string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := e.Select("R", col, 1000, 1000+1<<20/100); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOnlineIndexOnlyAtEpochBoundary: the review runs only when the 100th
// select closes the epoch; no select before it builds the index.
func TestOnlineIndexOnlyAtEpochBoundary(t *testing.T) {
	rng := rand.New(rand.NewPCG(69, 70))
	e := newEngineWithData(t, Config{Strategy: StrategyOnline}, randomVals(rng, 300000, 1<<20))
	defer e.Close()
	for i := 0; i < 99; i++ {
		selectOnePercent(t, e, "A", 1)
		if fullIndexes(e)["A"] {
			t.Fatalf("index built before the epoch boundary, at select %d", i+1)
		}
	}
	selectOnePercent(t, e, "A", 1)
	if !fullIndexes(e)["A"] {
		t.Fatal("no index built at the epoch boundary")
	}
}

// TestOnlineDropAfterIdleEpochs: an index no select reads is kept through
// 19 reviews and dropped by the 20th, while the read column keeps its own.
func TestOnlineDropAfterIdleEpochs(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 72))
	e := newEngineWithData(t, Config{Strategy: StrategyOnline}, randomVals(rng, 300000, 1<<20))
	defer e.Close()
	tab, _ := e.Table("R")
	tab.AddColumnFromSlice("stale", randomVals(rng, 300000, 1<<20))
	if _, err := e.BuildFullIndex("R", "stale"); err != nil {
		t.Fatal(err)
	}
	for ep := 1; ep <= 20; ep++ {
		selectOnePercent(t, e, "A", 100)
		got := fullIndexes(e)
		if !got["A"] {
			t.Fatalf("after epoch %d: the read column has no index", ep)
		}
		if got["stale"] != (ep < 20) {
			t.Fatalf("after epoch %d: stale index kept %v, want it dropped at epoch 20", ep, got["stale"])
		}
	}
}

// TestOnlineForceReview: IdleActions reviews an open epoch at once, and
// that review consumes the epoch's counts: with the index dropped by hand,
// a second review sees no load and does not rebuild it.
func TestOnlineForceReview(t *testing.T) {
	rng := rand.New(rand.NewPCG(73, 74))
	e := newEngineWithData(t, Config{Strategy: StrategyOnline}, randomVals(rng, 300000, 1<<20))
	defer e.Close()
	selectOnePercent(t, e, "A", 50)
	if changed, _ := e.IdleActions(1); changed != 1 || !fullIndexes(e)["A"] {
		t.Fatalf("forced review changed %d indexes, want 1; design %v", changed, fullIndexes(e))
	}
	if err := e.DropFullIndex("R", "A"); err != nil {
		t.Fatal(err)
	}
	if changed, _ := e.IdleActions(1); changed != 0 || fullIndexes(e)["A"] {
		t.Fatalf("second forced review changed %d indexes, want 0; design %v", changed, fullIndexes(e))
	}
}
