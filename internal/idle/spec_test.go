package idle

import (
	"sync/atomic"
	"testing"
)

// Speculative steps must only run after the real step reports exhaustion,
// and must stop at the per-gap budget cap.
func TestSpeculativeOnlyAfterRealExhausted(t *testing.T) {
	var order []string
	real := 3
	r := NewRunner(func() bool {
		if real == 0 {
			return false
		}
		real--
		order = append(order, "real")
		return true
	}, 0)
	r.SetSpeculative(func() bool {
		order = append(order, "spec")
		return true
	})
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
	r := NewRunner(func() bool { return false }, 0)
	r.SetSpeculative(func() bool { return true })
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
	r := NewRunner(func() bool { return false }, 0)
	r.SetSpeculative(func() bool { attempts.Add(1); return false })
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
	r := NewRunner(func() bool { return false }, 0)
	r.SetSpeculative(func() bool {
		t.Error("speculative step ran against an admitted query")
		return true
	})
	r.SetClaimHook(r.Gate().Hold)
	if done := r.RunActions(1); done != 0 {
		t.Fatalf("RunActions = %d with a query admitted mid-claim", done)
	}
	if got := r.SpecSpent(); got != 0 {
		t.Fatalf("SpecSpent = %d after a vetoed claim, want 0", got)
	}
}
