package core

import (
	"testing"

	"holistic/internal/stats"
)

// trainStationary feeds the forecaster enough identical queries to close
// three epochs (velocity needs two samples), yielding full confidence on a
// stationary range.
func trainStationary(tn *Tuner, col string, lo, hi int64) {
	for i := 0; i < 3*stats.DefaultEpochQueries; i++ {
		tn.NoteQuery(col, lo, hi)
	}
}

// always grants every speculative slot.
func always() bool { return true }

// Speculation must not be asked for a slot while reactive refinement still
// has positive-score work, even with a fully confident forecast in hand.
func TestSpeculativeWaitsForRealWork(t *testing.T) {
	// Global target 4096 puts the speculative target at 256: after reactive
	// convergence there is still finer pre-cracking for speculation to do.
	tn := NewTuner(Config{TargetPieceSize: 4096, Seed: 7}, nil)
	c := newFakeColumn("a", 16384, 1<<20, 61)
	tn.Register(c, 0, 1<<20)
	trainStationary(tn, "a", 100, 200)
	if conf := tn.Collector().Confidence("a"); conf != 1 {
		t.Fatalf("stationary confidence = %f, want 1", conf)
	}
	// The column is coarse and hot: reactive cracking owns every idle slot
	// and the auction never asks for a speculative one.
	asked := 0
	speculate := func() bool { asked++; return true }
	steps := 0
	for b, _ := scan(tn.cands, 0, tn.realBid); b.c != nil; b, _ = scan(tn.cands, 0, tn.realBid) {
		if _, res := tn.TryStep(speculate); res != StepWorked {
			t.Fatalf("reactive step %d: %v", steps, res)
		}
		if asked != 0 || tn.SpecActions() != 0 {
			t.Fatalf("step %d asked %d speculative slots, ran %d speculative actions, with real work pending",
				steps, asked, tn.SpecActions())
		}
		steps++
	}
	if steps == 0 {
		t.Fatal("no reactive work drained")
	}
	// Real work is drained: the next step asks once and speculates.
	reactive := tn.Actions()
	w, res := tn.TryStep(speculate)
	if res != StepWorked || w <= 0 || asked != 1 {
		t.Fatalf("post-exhaustion speculation: %d,%v after %d slots, want work after 1", w, res, asked)
	}
	if tn.SpecActions() != 1 || tn.SpecWork() != int64(w) {
		t.Fatalf("SpecActions=%d SpecWork=%d after one step of %d",
			tn.SpecActions(), tn.SpecWork(), w)
	}
	// Reactive counters keep their meaning: speculation is accounted apart.
	if tn.Actions() != reactive {
		t.Fatalf("Actions() moved %d -> %d on a speculative step", reactive, tn.Actions())
	}
}

// Speculative steps refine the predicted range down to the speculative
// target (finer than the global target) and then report exhaustion.
func TestSpeculativeRefinesToSpecTargetThenStops(t *testing.T) {
	// Global target equal to the column size: reactive work exhausts
	// immediately, isolating the speculative path.
	tn := NewTuner(Config{TargetPieceSize: 16384, Seed: 8}, nil)
	c := newFakeColumn("a", 16384, 1<<20, 62)
	tn.Register(c, 0, 1<<20)
	trainStationary(tn, "a", 100, 200)
	preds := tn.Collector().Predict("a")
	if len(preds) == 0 {
		t.Fatal("no prediction after stationary training")
	}
	pr := preds[0].Range
	worked := 0
	for i := 0; i < 100; i++ {
		w, res := tn.TryStep(always)
		if res == StepExhausted {
			break
		}
		if res != StepWorked || w <= 0 {
			t.Fatalf("speculative step %d: %d,%v", i, w, res)
		}
		worked++
	}
	if worked == 0 {
		t.Fatal("speculation never ran on an idle converged column")
	}
	avg := c.ix.RangePieceAvg(pr.Lo, pr.Hi)
	if target := tn.model.SpecTarget(); avg > target {
		t.Fatalf("predicted range avg piece %f above speculative target %f", avg, target)
	}
	// Exhausted means exhausted: no further work, no spurious contention.
	if w, res := tn.TryStep(always); res != StepExhausted || w != 0 {
		t.Fatalf("post-convergence speculation: %d,%v", w, res)
	}
}

// A query overlapping a speculated range is a win, credited exactly once.
func TestSpecWinAccounting(t *testing.T) {
	tn := NewTuner(Config{TargetPieceSize: 16384, Seed: 9}, nil)
	c := newFakeColumn("a", 16384, 1<<20, 63)
	tn.Register(c, 0, 1<<20)
	trainStationary(tn, "a", 100, 200)
	preds := tn.Collector().Predict("a")
	if len(preds) == 0 {
		t.Fatal("no prediction after training")
	}
	if _, res := tn.TryStep(always); res != StepWorked {
		t.Fatalf("speculative step: %v", res)
	}
	if tn.SpecWins() != 0 {
		t.Fatal("win credited before any query")
	}
	pr := preds[0].Range
	tn.NoteQuery("a", pr.Lo, pr.Hi)
	if got := tn.SpecWins(); got != 1 {
		t.Fatalf("SpecWins = %d after overlapping query, want 1", got)
	}
	// The entry is retired: the same pre-crack is not credited twice.
	tn.NoteQuery("a", pr.Lo, pr.Hi)
	if got := tn.SpecWins(); got != 1 {
		t.Fatalf("SpecWins = %d after second query, want still 1", got)
	}
	// Disjoint queries earn nothing.
	tn.NoteQuery("a", pr.Hi+1000, pr.Hi+2000)
	if got := tn.SpecWins(); got != 1 {
		t.Fatalf("SpecWins = %d after disjoint query, want 1", got)
	}
}

// ForecastSummary surfaces warming-up and trained columns alike.
func TestForecastSummary(t *testing.T) {
	tn := NewTuner(Config{TargetPieceSize: 16384, Seed: 10}, nil)
	hot := newFakeColumn("hot", 4096, 1<<20, 64)
	cold := newFakeColumn("cold", 4096, 1<<20, 65)
	tn.Register(hot, 0, 1<<20)
	tn.Register(cold, 0, 1<<20)
	trainStationary(tn, "hot", 100, 200)
	sum := tn.ForecastSummary()
	if len(sum) != 2 {
		t.Fatalf("ForecastSummary has %d columns, want 2", len(sum))
	}
	byName := map[string]ColumnForecast{}
	for _, cf := range sum {
		byName[cf.Column] = cf
	}
	h := byName["hot"]
	if h.Confidence != 1 || h.Epochs < 3 || len(h.Ranges) == 0 {
		t.Fatalf("trained column summary: %+v", h)
	}
	if h.Ranges[0].Confidence <= 0 {
		t.Fatalf("predicted range confidence %f", h.Ranges[0].Confidence)
	}
	cc := byName["cold"]
	if cc.Confidence != 0 || len(cc.Ranges) != 0 {
		t.Fatalf("unqueried column summary: %+v", cc)
	}
}
