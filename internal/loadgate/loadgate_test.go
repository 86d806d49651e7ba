package loadgate

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestStepDeniedWhileBusy(t *testing.T) {
	g := New()
	if !g.StepBegin() {
		t.Fatal("step denied on an idle gate")
	}
	g.StepEnd()

	g.Begin()
	if g.StepBegin() {
		t.Fatal("step granted while a request is in flight")
	}
	if got := g.Snapshot().StepRejected; got != 1 {
		t.Fatalf("StepRejected = %d, want 1", got)
	}
	g.End()
	if !g.StepBegin() {
		t.Fatal("step denied after the request completed")
	}
	g.StepEnd()
}

func TestQuietForAndGaps(t *testing.T) {
	g := New()
	if g.QuietFor() <= 0 {
		t.Fatal("fresh gate should already be in a gap")
	}
	g.Begin()
	if g.QuietFor() != 0 {
		t.Fatal("QuietFor must be zero while busy")
	}
	if g.Snapshot().Gaps != 0 {
		t.Fatal("no gap transition should be recorded yet")
	}
	g.End()
	if got := g.Snapshot().Gaps; got != 1 {
		t.Fatalf("Gaps = %d, want 1 after the system drained", got)
	}
	// Overlapping requests: the gap only begins when the LAST one ends.
	g.Begin()
	g.Begin()
	g.End()
	if g.Snapshot().Gaps != 1 {
		t.Fatal("gap recorded while a request was still in flight")
	}
	g.End()
	if got := g.Snapshot().Gaps; got != 2 {
		t.Fatalf("Gaps = %d, want 2", got)
	}
}

// TestGateHoldIsNotAnArrival: Hold shares the in-flight count, quiet clock
// and gap count with Begin/End but counts no request, so a statement held
// inside a request arrives once and closes no gap of its own.
func TestGateHoldIsNotAnArrival(t *testing.T) {
	g := New()
	g.Begin()
	g.Hold()
	g.Release()
	if s := g.Snapshot(); s.InFlight != 1 || s.Gaps != 0 || s.QuietForUS != 0 || g.StepBegin() {
		t.Fatalf("a released hold inside a request opened the gate: %+v", s)
	}
	g.End()
	g.Hold()
	if g.StepBegin() {
		t.Fatal("step granted while a statement holds the gate")
	}
	g.Release()
	if s := g.Snapshot(); s.Arrivals != 1 || s.Completed != 1 || s.Gaps != 2 || s.InFlight != 0 {
		t.Fatalf("holds counted as requests or gaps miscounted: %+v", s)
	}
}

// TestNoGrantWitnessesTraffic hammers the gate from both sides and verifies
// the core invariant: a step token is only ever issued while the in-flight
// count is exactly zero. Each granted stepper immediately re-reads the
// packed state; traffic arriving after the grant is legal, but the grant
// itself must have been made against zero in-flight — which the packed-word
// CAS guarantees, and which the bookkeeping below cross-checks by balance.
func TestNoGrantWitnessesTraffic(t *testing.T) {
	g := New()
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Traffic side: bursts of overlapping requests with tiny gaps.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				g.Begin()
				g.End()
			}
		}()
	}
	// Idle side: steppers racing for tokens.
	var granted atomic.Int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if g.StepBegin() {
					granted.Add(1)
					g.StepEnd()
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	s := g.Snapshot()
	if s.InFlight != 0 || s.RunningSteps != 0 {
		t.Fatalf("unbalanced state after drain: %+v", s)
	}
	if s.Arrivals != s.Completed {
		t.Fatalf("arrivals %d != completed %d", s.Arrivals, s.Completed)
	}
	if s.StepGrants != granted.Load() {
		t.Fatalf("grant counter %d != observed grants %d", s.StepGrants, granted.Load())
	}
	if s.StepGrants == 0 {
		t.Log("no grants under contention (acceptable on a loaded box), but suspicious")
	}
}

// TestQuietForBeginRace pins the TOCTOU QuietFor used to have: a request
// that Begins between the state check and the quietSince load must not let
// the caller observe a positive gap while traffic is live. The test hook
// injects the Begin into exactly that window; without the post-load state
// re-check this fails deterministically.
func TestQuietForBeginRace(t *testing.T) {
	g := New()
	time.Sleep(time.Millisecond) // make the would-be stale gap clearly positive
	fired := false
	g.testHookQuiet = func() {
		if !fired {
			fired = true
			g.Begin()
		}
	}
	if d := g.QuietFor(); d != 0 {
		t.Fatalf("QuietFor = %v with a request in flight, want 0", d)
	}
	if !fired {
		t.Fatal("test hook never ran")
	}
	g.testHookQuiet = nil
	if g.QuietFor() != 0 {
		t.Fatal("QuietFor must stay 0 while the request is in flight")
	}
	g.End()
	if g.QuietFor() < 0 {
		t.Fatal("negative gap after End")
	}
}

// TestQuietForEndRace pins the companion ordering bug in End: if the last
// End decremented in-flight to zero BEFORE storing the new quietSince, a
// concurrent QuietFor could pair state==0 with the previous gap's stamp and
// report a gap spanning the whole busy period. The hook lands a full
// Begin+sleep+End cycle between QuietFor's loads; the returned gap must not
// reach back before that cycle's End.
func TestQuietForEndRace(t *testing.T) {
	g := New()
	const busy = 5 * time.Millisecond
	fired := false
	g.testHookQuiet = func() {
		if !fired {
			fired = true
			g.Begin()
			time.Sleep(busy)
			g.End()
		}
	}
	if d := g.QuietFor(); d >= busy {
		t.Fatalf("QuietFor = %v, reaches back across a %v busy period", d, busy)
	}
}

// TestQuietForHammer races Begin/End bursts against QuietFor pollers and
// checks the invariant the idle ramp depends on: any positive gap observed
// during the storm is small (a real inter-burst gap), never the
// wall-clock-scale value a stale quietSince pairing would produce.
func TestQuietForHammer(t *testing.T) {
	g := New()
	start := time.Now()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				g.Begin()
				g.Begin()
				g.End()
				g.End()
			}
		}()
	}
	var worst atomic.Int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				d := int64(g.QuietFor())
				for {
					w := worst.Load()
					if d <= w || worst.CompareAndSwap(w, d) {
						break
					}
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	// The initial gap before the first Begin is a legitimate observation;
	// anything beyond the storm's total runtime would mean a stale pairing.
	if w := time.Duration(worst.Load()); w > time.Since(start) {
		t.Fatalf("observed %v gap during a %v storm: stale quietSince pairing", w, time.Since(start))
	}
	if g.Snapshot().InFlight != 0 {
		t.Fatal("unbalanced in-flight count after drain")
	}
}

func TestArrivalRateDecays(t *testing.T) {
	g := New()
	for i := 0; i < 100; i++ {
		g.Begin()
		g.End()
	}
	r0 := g.ArrivalRate()
	if r0 <= 0 {
		t.Fatalf("rate %f after 100 arrivals, want > 0", r0)
	}
	time.Sleep(20 * time.Millisecond)
	r1 := g.ArrivalRate()
	if r1 >= r0 {
		t.Fatalf("rate did not decay: %f -> %f", r0, r1)
	}
}
