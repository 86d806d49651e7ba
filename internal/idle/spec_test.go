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
	})
	r.SetSpeculative(func() bool {
		order = append(order, "spec")
		return true
	}, 4)
	done := r.RunActions(100)
	if done != 3+4 {
		t.Fatalf("RunActions = %d, want 3 real + 4 speculative", done)
	}
	for i, o := range order {
		if (i < 3) != (o == "real") {
			t.Fatalf("action order %v: speculation before real exhaustion", order)
		}
	}
	if got := r.SpecActions(); got != 4 {
		t.Fatalf("SpecActions = %d, want 4", got)
	}
	if got := r.SpecSpent(); got != 4 {
		t.Fatalf("SpecSpent = %d, want the full budget 4", got)
	}
	if got := r.Actions(); got != 7 {
		t.Fatalf("Actions = %d, want 7 (speculative actions count)", got)
	}
	// The cap holds: more idle time buys no more speculation this gap.
	if extra := r.RunActions(100); extra != 0 {
		t.Fatalf("post-cap RunActions = %d, want 0", extra)
	}
}

// Real traffic re-arms the speculative budget: the cap is per gap, and a
// statement closing on the gate starts a new one.
func TestSpecBudgetResetsPerGap(t *testing.T) {
	r := NewRunner(func() bool { return false })
	r.SetSpeculative(func() bool { return true }, 2)
	if done := r.RunActions(100); done != 2 {
		t.Fatalf("first gap ran %d speculative actions, want 2", done)
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
	if done := r.RunActions(100); done != 2 {
		t.Fatalf("second gap ran %d speculative actions, want 2", done)
	}
	if got := r.SpecActions(); got != 4 {
		t.Fatalf("SpecActions = %d, want 4 across both gaps", got)
	}
}

// A speculative step that finds nothing still consumes a budget slot: the
// cap bounds attempts, so a maximally wrong forecast costs a bounded number
// of probes per gap, not an unbounded spin.
func TestSpecFailedAttemptsConsumeBudget(t *testing.T) {
	var attempts atomic.Int64
	r := NewRunner(func() bool { return false })
	r.SetSpeculative(func() bool { attempts.Add(1); return false }, 3)
	for i := 0; i < 10; i++ {
		if done := r.RunActions(5); done != 0 {
			t.Fatalf("failed speculation reported %d actions", done)
		}
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("speculative attempts = %d, want exactly the budget 3", got)
	}
	if got := r.SpecActions(); got != 0 {
		t.Fatalf("SpecActions = %d, want 0 (no attempt did work)", got)
	}
}

// The rendezvous guarantee extends to speculation: a query admitted between
// the claim and the token grant vetoes the step before the speculative path
// can be reached, and no budget is consumed.
func TestSpecYieldsToQueryAdmittedMidClaim(t *testing.T) {
	r := NewRunner(func() bool { return false })
	r.SetSpeculative(func() bool {
		t.Error("speculative step ran against an admitted query")
		return true
	}, 8)
	r.SetClaimHook(r.Gate().Hold)
	if done := r.RunActions(1); done != 0 {
		t.Fatalf("RunActions = %d with a query admitted mid-claim", done)
	}
	if got := r.SpecSpent(); got != 0 {
		t.Fatalf("SpecSpent = %d after a vetoed claim, want 0", got)
	}
}

// Defaults and accessors.
func TestSpecConfig(t *testing.T) {
	r := NewRunner(func() bool { return false })
	if r.specStep != nil || r.SpecBudget() != 0 {
		t.Fatal("speculation enabled by default")
	}
	r.SetSpeculative(nil, 5) // nil step: ignored
	if r.specStep != nil {
		t.Fatal("nil speculative step attached")
	}
	r.SetSpeculative(func() bool { return false }, 0)
	if r.specStep == nil || r.SpecBudget() != DefaultSpecBudget {
		t.Fatalf("SpecBudget = %d, want default %d", r.SpecBudget(), DefaultSpecBudget)
	}
}
