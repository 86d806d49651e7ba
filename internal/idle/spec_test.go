package idle

import (
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"holistic/internal/core"
)

// tiered is a step shaped like the tuner's auction: real work first, then,
// only if the runner grants a speculative slot, spec.
func tiered(real, spec func() bool) func(func() bool) bool {
	return func(speculate func() bool) bool {
		return real() || speculate() && spec()
	}
}

func never() bool { return false }

// Speculative steps must only run after the real step reports exhaustion,
// and must stop at the per-gap budget cap.
func TestSpeculativeOnlyAfterRealExhausted(t *testing.T) {
	var order []string
	real := 3
	r := NewRunner(tiered(func() bool {
		if real == 0 {
			return false
		}
		real--
		order = append(order, "real")
		return true
	}, func() bool {
		order = append(order, "spec")
		return true
	}), 0)
	done := r.RunActions(1000)
	if done != 3+DefaultSpecBudget {
		t.Fatalf("RunActions = %d, want 3 real + %d speculative", done, DefaultSpecBudget)
	}
	if len(order) != done {
		t.Fatalf("%d steps ran for %d actions", len(order), done)
	}
	for i, o := range order {
		if (i < 3) != (o == "real") {
			t.Fatalf("action order %v: speculation before real exhaustion", order)
		}
	}
	if got := r.SpecSpent(); got != DefaultSpecBudget {
		t.Fatalf("SpecSpent = %d, want the full budget %d", got, DefaultSpecBudget)
	}
	if got := r.Actions(); got != int64(done) {
		t.Fatalf("Actions = %d, want %d (speculative actions count)", got, done)
	}
	// The cap holds: more idle time buys no more speculation this gap.
	if extra := r.RunActions(1000); extra != 0 {
		t.Fatalf("post-cap RunActions = %d, want 0", extra)
	}
}

// Real traffic re-arms the speculative budget: the cap is per gap, and a
// statement closing on the gate starts a new one.
func TestSpecBudgetResetsPerGap(t *testing.T) {
	r := NewRunner(tiered(never, func() bool { return true }), 0)
	if done := r.RunActions(1000); done != DefaultSpecBudget {
		t.Fatalf("first gap ran %d speculative actions, want %d", done, DefaultSpecBudget)
	}
	r.Gate().Hold()
	// While the statement is in flight nothing runs, speculative or not.
	if done := r.RunActions(100); done != 0 {
		t.Fatalf("ran %d actions against an in-flight statement", done)
	}
	r.Gate().Release()
	if got := r.SpecSpent(); got != 0 {
		t.Fatalf("SpecSpent after the gap closed = %d, want 0", got)
	}
	if done := r.RunActions(1000); done != DefaultSpecBudget {
		t.Fatalf("second gap ran %d speculative actions, want %d", done, DefaultSpecBudget)
	}
	if got := r.Actions(); got != 2*DefaultSpecBudget {
		t.Fatalf("Actions = %d, want %d across both gaps", got, 2*DefaultSpecBudget)
	}
}

// A speculative step that finds nothing still consumes a budget slot: the
// cap bounds attempts, so a maximally wrong forecast costs a bounded number
// of probes per gap, not an unbounded spin.
func TestSpecFailedAttemptsConsumeBudget(t *testing.T) {
	var attempts atomic.Int64
	r := NewRunner(tiered(never, func() bool { attempts.Add(1); return false }), 0)
	for i := 0; i < 3*DefaultSpecBudget; i++ {
		if done := r.RunActions(5); done != 0 {
			t.Fatalf("failed speculation reported %d actions", done)
		}
	}
	if got := attempts.Load(); got != DefaultSpecBudget {
		t.Fatalf("speculative attempts = %d, want exactly the budget %d", got, DefaultSpecBudget)
	}
	if got := r.Actions(); got != 0 {
		t.Fatalf("Actions = %d, want 0 (no attempt did work)", got)
	}
}

// The rendezvous guarantee extends to speculation: a query admitted between
// the claim and the token grant vetoes the step before the speculative path
// can be reached, and no budget is consumed.
func TestSpecYieldsToQueryAdmittedMidClaim(t *testing.T) {
	r := NewRunner(tiered(never, func() bool {
		t.Error("speculative step ran against an admitted query")
		return true
	}), 0)
	r.SetClaimHook(r.Gate().Hold)
	if done := r.RunActions(1); done != 0 {
		t.Fatalf("RunActions = %d with a query admitted mid-claim", done)
	}
	if got := r.SpecSpent(); got != 0 {
		t.Fatalf("SpecSpent = %d after a vetoed claim, want 0", got)
	}
}

// blockingColumn is one coarse core.Column whose crack blocks until release
// is closed, announcing on entered that a worker holds its claim.
type blockingColumn struct {
	entered, release chan struct{}
}

func (c *blockingColumn) Name() string                       { return "r.a" }
func (c *blockingColumn) PieceStats() (pieces, n int)        { return 1, 1 << 20 }
func (c *blockingColumn) RangePieceAvg(int64, int64) float64 { return 1 << 20 }
func (c *blockingColumn) PendingOps() int                    { return 0 }
func (c *blockingColumn) MergeStep(int) int                  { return 0 }
func (c *blockingColumn) RefineRange(*rand.Rand, int64, int64, float64, int) int {
	return 0
}
func (c *blockingColumn) RandomCrack(*rand.Rand) int {
	c.entered <- struct{}{}
	<-c.release
	return 1
}

// A step that finds the only column claimed by another worker yields as
// contended before the speculative tier: it spends no slot of the gap's
// budget. The runner is wired as engine.New wires it.
func TestSpecContendedStepSpendsNoSlot(t *testing.T) {
	col := &blockingColumn{entered: make(chan struct{}), release: make(chan struct{})}
	tn := core.NewTuner(core.Config{Seed: 1}, nil)
	tn.Register(col, 0, 1<<20)
	tn.NoteQuery(col.Name(), 0, 100)
	r := NewRunner(func(speculate func() bool) bool {
		_, res := tn.TryStep(speculate)
		return res == core.StepWorked
	}, 1)

	done := make(chan struct{})
	go func() { // another worker, holding the column's claim mid-crack
		defer close(done)
		tn.TryStep(nil)
	}()
	<-col.entered
	ran := r.RunActions(1)
	spent := r.SpecSpent()
	close(col.release)
	<-done
	if ran != 0 {
		t.Fatalf("RunActions = %d while the only column was claimed", ran)
	}
	if spent != 0 {
		t.Fatalf("a contended step spent %d speculative slots, want 0", spent)
	}
	if got := tn.Contended(); got != 1 {
		t.Fatalf("Contended = %d, want 1", got)
	}
}
