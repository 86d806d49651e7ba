package engine

import (
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

// TestConcurrentQueriesWithAutoIdle runs parallel queries on multiple
// columns while the automatic idle worker refines in the background. Run
// with -race; every result is checked against the oracle.
func TestConcurrentQueriesWithAutoIdle(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	const n, domain = 20000, int64(1 << 20)
	colA := randomVals(rng, n, domain)
	colB := randomVals(rng, n, domain)
	e := New(Config{
		Strategy:        StrategyHolistic,
		Seed:            5,
		TargetPieceSize: 128,
		AutoIdle:        true,
	})
	defer e.Close()
	tab, err := e.CreateTable("R")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumnFromSlice("A", append([]int64{}, colA...)); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumnFromSlice("B", append([]int64{}, colB...)); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			grng := rand.New(rand.NewPCG(uint64(g), 99))
			col, vals := "A", colA
			if g%2 == 1 {
				col, vals = "B", colB
			}
			for i := 0; i < 150; i++ {
				lo := grng.Int64N(domain)
				hi := lo + grng.Int64N(domain/64+1)
				r, err := e.Select("R", col, lo, hi)
				if err != nil {
					errCh <- err
					return
				}
				wc, ws := naiveRange(vals, lo, hi)
				if r.Count != wc || r.Sum != ws {
					errCh <- &mismatchError{col, lo, hi, r.Count, wc}
					return
				}
				if i%40 == 0 {
					// Give the idle worker a window.
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// The background worker should have found idle time somewhere.
	deadline := time.After(2 * time.Second)
	for e.tuner.Actions() == 0 {
		select {
		case <-deadline:
			t.Log("warning: idle worker never ran (machine too loaded?) — results were still correct")
			return
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

type mismatchError struct {
	col       string
	lo, hi    int64
	got, want int
}

func (m *mismatchError) Error() string {
	return "concurrent mismatch on " + m.col
}

// TestConcurrentManualIdleAndQueries interleaves explicit idle windows with
// queries from multiple goroutines (no background worker).
func TestConcurrentManualIdleAndQueries(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	const n, domain = 10000, int64(1 << 16)
	vals := randomVals(rng, n, domain)
	e := newEngineWithData(t, Config{Strategy: StrategyHolistic, Seed: 6, TargetPieceSize: 64}, vals)
	defer e.Close()

	var wg sync.WaitGroup
	fail := make(chan error, 4)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			grng := rand.New(rand.NewPCG(uint64(g), 7))
			for i := 0; i < 100; i++ {
				if g == 2 {
					e.IdleActions(3)
					continue
				}
				lo := grng.Int64N(domain)
				hi := lo + grng.Int64N(1024) + 1
				r, err := e.Select("R", "A", lo, hi)
				if err != nil {
					fail <- err
					return
				}
				wc, _ := naiveRange(vals, lo, hi)
				if r.Count != wc {
					fail <- &mismatchError{"A", lo, hi, r.Count, wc}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}
	// Index integrity after the storm.
	sc, _ := e.column("R", "A")
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentUpdatesAndQueries exercises inserts/deletes racing with
// queries under the holistic strategy. Counts cannot be asserted exactly
// (updates land concurrently) but the engine must not corrupt state.
func TestConcurrentUpdatesAndQueries(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	vals := randomVals(rng, 5000, 10000)
	e := newEngineWithData(t, Config{Strategy: StrategyHolistic, Seed: 8, TargetPieceSize: 64}, vals)
	defer e.Close()
	tab, _ := e.Table("R")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		wrng := rand.New(rand.NewPCG(1, 1))
		for i := 0; i < 300; i++ {
			if wrng.IntN(2) == 0 {
				tab.InsertRow(wrng.Int64N(10000))
			} else {
				tab.DeleteWhere("A", wrng.Int64N(10000))
			}
		}
		close(stop)
	}()
	wg.Add(1)
	go func() { // reader
		defer wg.Done()
		qrng := rand.New(rand.NewPCG(2, 2))
		for {
			select {
			case <-stop:
				return
			default:
			}
			lo := qrng.Int64N(10000)
			if _, err := e.Select("R", "A", lo, lo+500); err != nil {
				t.Error(err)
				return
			}
			e.IdleActions(2)
		}
	}()
	wg.Wait()

	// Final integrity: a fresh query must agree with a tombstone-aware scan.
	sc, _ := e.column("R", "A")
	wantCount, wantSum := oracleScan(sc, 0, 1<<40)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := e.Select("R", "A", 0, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count != wantCount || r.Sum != wantSum {
		t.Fatalf("final state diverged: %d/%d vs scan %d/%d", r.Count, r.Sum, wantCount, wantSum)
	}
}

// TestIdleStepNeverStartsAfterQueryAdmitted is the engine-level rendezvous
// proof: with crack work pending, a query admitted inside the idle worker's
// claim window (between its idle check and its step token) vetoes the step
// before it starts, so no crack runs and the tuner counts nothing. Once the
// query completes, the same steps run — proving the earlier zero was the
// veto, not exhaustion.
func TestIdleStepNeverStartsAfterQueryAdmitted(t *testing.T) {
	rng := rand.New(rand.NewPCG(701, 702))
	vals := randomVals(rng, 1<<15, 1<<20)
	e := newEngineWithData(t, Config{
		Strategy:        StrategyHolistic,
		Seed:            31,
		TargetPieceSize: 256,
		Shards:          2,
	}, vals)
	defer e.Close()

	// A few selects crack their bounds and make the column hot; its pieces
	// stay far above the target, so refinement is pending.
	for i := int64(0); i < 8; i++ {
		if _, err := e.Select("R", "A", i*100_000, i*100_000+1000); err != nil {
			t.Fatal(err)
		}
	}
	actions := e.tuner.Actions()
	pieces, _, _ := e.PieceStats("R", "A")

	// Rendezvous: a query arrives between the worker's idle check and its
	// token grant.
	e.runner.SetClaimHook(e.runner.Gate().Hold)
	if ran := e.runner.RunActions(5); ran != 0 {
		t.Fatalf("%d idle actions ran against an admitted query", ran)
	}
	if got := e.tuner.Actions(); got != actions {
		t.Fatalf("tuner actions moved %d -> %d against an admitted query", actions, got)
	}
	if got, _, _ := e.PieceStats("R", "A"); got != pieces {
		t.Fatalf("pieces moved %d -> %d against an admitted query", pieces, got)
	}
	e.runner.SetClaimHook(nil)
	e.runner.Gate().Release()

	// The gap is real now: the pending crack steps run.
	if ran := e.runner.RunActions(5); ran != 5 {
		t.Fatalf("%d idle actions ran after the query completed, want 5", ran)
	}
	if got := e.tuner.Actions(); got != actions+5 {
		t.Fatalf("tuner actions %d after the release, want %d", got, actions+5)
	}
}
