package core

import (
	"sync/atomic"
	"testing"
)

type fakeAux struct {
	score atomic.Uint64 // float bits not needed; treat as int score
	runs  atomic.Int64
}

func (f *fakeAux) Name() string { return "aux:test" }
func (f *fakeAux) Score() float64 {
	return float64(f.score.Load())
}
func (f *fakeAux) Run() int {
	f.runs.Add(1)
	f.score.Store(0) // one run satisfies the action
	return 7
}

// TestAuxActionBidsInAuction: with no refinable columns, a zero-scored aux
// action leaves the tuner exhausted; once its score turns positive the next
// TryStep claims and runs it exactly once.
func TestAuxActionBidsInAuction(t *testing.T) {
	tn := NewTuner(Config{Seed: 1}, nil)
	a := &fakeAux{}
	tn.RegisterAux(a)

	if _, res := tn.TryStep(); res != StepExhausted {
		t.Fatalf("zero-scored aux should leave tuner exhausted, got %v", res)
	}
	a.score.Store(3)
	w, res := tn.TryStep()
	if res != StepWorked || w != 7 {
		t.Fatalf("TryStep = (%d, %v), want (7, StepWorked)", w, res)
	}
	if a.runs.Load() != 1 {
		t.Fatalf("aux ran %d times, want 1", a.runs.Load())
	}
	if tn.AuxRuns() != 1 || tn.Actions() != 1 {
		t.Fatalf("counters: aux %d actions %d, want 1/1", tn.AuxRuns(), tn.Actions())
	}
	if _, res := tn.TryStep(); res != StepExhausted {
		t.Fatalf("satisfied aux should exhaust again, got %v", res)
	}
}
