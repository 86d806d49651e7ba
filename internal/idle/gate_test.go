package idle

import (
	"sync/atomic"
	"testing"
	"time"

	"holistic/internal/loadgate"
)

// TestGateVetoesPool: with a server's gate swapped in, a pool must not run a
// single action while the gate reports a request in flight, and must resume
// once the traffic gap starts, taking its step tokens from that gate.
func TestGateVetoesPool(t *testing.T) {
	var calls atomic.Int64
	r := newTimedRunner(func(func() bool) bool { calls.Add(1); return true }, time.Millisecond, 4, 2)
	g := loadgate.New()
	r.SetGate(g)
	checkPoolYields(t, r, &calls, g.Begin, g.End)
	if g.Snapshot().StepGrants == 0 {
		t.Fatal("pool stepped without taking gate tokens")
	}
}

// TestGateRecheckPreemptsStep: a request arriving on a swapped-in server gate
// between the worker's idle check and the step must deny the step's token.
// The test hook injects the arrival inside the claim window.
func TestGateRecheckPreemptsStep(t *testing.T) {
	var calls atomic.Int64
	r := NewRunner(func(func() bool) bool { calls.Add(1); return true }, 0)
	g := loadgate.New()
	r.SetGate(g)
	r.testHookClaim = g.Begin // a request arrives mid-claim
	if got := r.RunActions(1); got != 0 || calls.Load() != 0 {
		t.Fatalf("ran %d actions (%d steps) despite a request arriving inside the claim", got, calls.Load())
	}
	if s := g.Snapshot(); s.StepRejected != 1 {
		t.Fatalf("gate did not refuse the step token: %+v", s)
	}
	r.testHookClaim = nil
	g.End()
	if got := r.RunActions(3); got != 3 {
		t.Fatalf("ran %d actions after the request drained, want 3", got)
	}
}

// TestManualRunRespectsGate: manual idle windows consult a swapped-in server
// gate too.
func TestManualRunRespectsGate(t *testing.T) {
	var calls atomic.Int64
	r := NewRunner(func(func() bool) bool { calls.Add(1); return true }, 0)
	g := loadgate.New()
	r.SetGate(g)
	g.Begin()
	if got := r.RunActions(10); got != 0 {
		t.Fatalf("manual window ran %d actions while the gate was busy", got)
	}
	g.End()
	if got := r.RunActions(10); got != 10 {
		t.Fatalf("manual window ran %d actions in the gap, want 10", got)
	}
}

// TestBurstRampsWithGapLength: the per-wakeup burst grows with the traffic
// gap, capped at MaxRamp.
func TestBurstRampsWithGapLength(t *testing.T) {
	r := newTimedRunner(func(func() bool) bool { return true }, 10*time.Millisecond, 8, 0)
	g := r.Gate()
	g.Hold()
	g.Release() // gap starts now
	if got := r.burst(); got != 8 {
		t.Fatalf("fresh-gap burst = %d, want 8", got)
	}
	time.Sleep(25 * time.Millisecond) // ~2.5 quiet periods into the gap
	if got := r.burst(); got < 16 {
		t.Fatalf("burst after a sustained gap = %d, want >= 16", got)
	}
	time.Sleep(100 * time.Millisecond) // far past MaxRamp quiet periods
	if got := r.burst(); got != 8*MaxRamp {
		t.Fatalf("burst = %d, want capped at %d", got, 8*MaxRamp)
	}
}
