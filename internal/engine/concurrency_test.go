package engine

import (
	"math/rand/v2"
	"testing"
)

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
