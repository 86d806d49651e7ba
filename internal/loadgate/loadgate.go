// Package loadgate turns traffic into the idle signal that drives holistic
// indexing. The paper's premise is that a running DBMS has gaps between
// statements and that every such gap should be spent on index refinement —
// but "idle" must be an emergent property of the actual traffic, not a
// guess. A Gate sits between the statements (which hold it while they run)
// and the idle worker pool (which asks for permission to run refinement
// steps via StepBegin/StepEnd), and enforces the paper's contract from both
// sides:
//
//   - While any statement is in flight — admitted, queued or executing — no
//     new refinement step is granted, so tuning work never competes with a
//     client query for cores or latches.
//   - The moment the in-flight count drops to zero a traffic gap begins, and
//     refinement steps are granted freely until the next statement arrives.
//
// Every deployment has exactly one gate. An idle pool starts with a gate of
// its own, on which the engine brackets each select and write with
// Hold/Release; behind the network server the pool is switched to the
// server's gate, which additionally brackets each request with Begin/End
// from admission to response. Only Begin counts a request: a statement the
// engine holds inside a served request is the same arrival, not a second
// one.
//
// The check is atomic, not advisory: the in-flight count and the number of
// refinement steps currently running are packed into one atomic word, and a
// step token is only ever issued by a compare-and-swap that witnessed an
// in-flight count of exactly zero. A statement can still arrive while a step
// is already running — steps are small and bounded (one crack action), and
// the idle pool's claim/re-check protocol yields at the next step boundary —
// but a step can never *start* against live traffic.
//
// The Gate also keeps the bookkeeping the server, benchmarks and tests need:
// traffic-gap transitions, refinement grants and rejections, and an
// exponentially-decayed arrival rate that reports how bursty recent traffic
// has been.
package loadgate

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// stepperBits is how many low bits of the packed state word hold the count
// of refinement steps currently running; the remaining high bits hold the
// in-flight statement count. 2^24 concurrent idle steps is unreachable (the
// pool is sized in the dozens), and 2^39 in-flight statements exceeds any
// plausible admission bound.
const stepperBits = 24

const stepperMask = (1 << stepperBits) - 1

// rateHalfLife is the half-life of the arrival-rate EWMA: recent bursts
// dominate, traffic from a few seconds ago fades.
const rateHalfLife = time.Second

// Gate tracks load and arbitrates idle refinement against it. The
// zero value is not ready; use New. All methods are safe for concurrent use.
type Gate struct {
	// state packs inFlight<<stepperBits | runningSteps; inFlight counts
	// Begin and Hold alike.
	state atomic.Int64

	// quietSince is the UnixNano instant the in-flight count last reached
	// zero (i.e. the start of the current traffic gap). Only meaningful
	// while the gate is not busy.
	quietSince atomic.Int64

	arrivals  atomic.Int64 // requests ever admitted
	completed atomic.Int64 // requests ever finished
	writes    atomic.Int64 // requests that mutated data (inserts/deletes)
	grants    atomic.Int64 // refinement step tokens issued
	rejected  atomic.Int64 // step requests denied because traffic was live
	gaps      atomic.Int64 // busy -> idle transitions observed

	// Arrival-rate EWMA, guarded by rateMu (updated on the request path but
	// only with a cheap decay-and-add).
	rateMu   sync.Mutex
	rate     float64 // requests per second, exponentially decayed
	rateMark int64   // UnixNano of the last rate update

	// testHookQuiet, when non-nil, runs inside QuietFor between the
	// quietSince load and the state re-check. Tests use it to inject a
	// racing Begin at the exact TOCTOU window.
	testHookQuiet func()
}

// New returns a Gate that considers the current instant the start of its
// first traffic gap.
func New() *Gate {
	g := &Gate{}
	now := time.Now().UnixNano()
	g.quietSince.Store(now)
	g.rateMark = now
	return g
}

// Begin reports that a request entered the system (admitted by the server,
// whether queued or executing): it counts an arrival and holds the gate.
// From this instant until the matching End, no refinement step will be
// granted.
func (g *Gate) Begin() {
	g.arrivals.Add(1)
	g.Hold()
	g.bumpRate()
}

// End reports that a request finished (its response was written or its
// connection died). If it was the last statement in flight, a traffic gap
// begins.
func (g *Gate) End() {
	g.completed.Add(1)
	g.Release()
}

// Hold marks one statement in flight without counting a request: the
// engine brackets every select and write with Hold/Release, so on the
// server's gate a served statement holds it twice but arrives once.
func (g *Gate) Hold() { g.state.Add(1 << stepperBits) }

// Release ends a Hold (or, via End, a Begin). If it was the last statement
// in flight, a traffic gap begins.
//
// quietSince is (re)stamped BEFORE the in-flight decrement: between a
// decrement-to-zero and a later store, a concurrent QuietFor would pair
// state==0 with the PREVIOUS gap's start and report a huge stale gap. The
// stamp is unconditional (a conditional "am I last?" load would leave two
// racing Releases both seeing count 2 and neither stamping): while in-flight
// is still nonzero every QuietFor returns 0 regardless of quietSince, racing
// Releases only tighten the stamp toward now, and once the count reaches
// zero no Release can still be holding an unflushed stamp — each one's store
// is ordered before its own decrement.
func (g *Gate) Release() {
	g.quietSince.Store(time.Now().UnixNano())
	s := g.state.Add(-(1 << stepperBits))
	if s>>stepperBits == 0 {
		g.gaps.Add(1)
	}
}

// NoteWrite reports that an admitted request mutated data. Writes ride the
// same Begin/End lifecycle as every request — a write in flight vetoes
// refinement steps exactly like a read — so this only tallies the mix for
// reporting; the server calls it once per insert/delete statement executed.
func (g *Gate) NoteWrite() { g.writes.Add(1) }

// Gaps returns how many busy -> idle transitions the gate has seen.
func (g *Gate) Gaps() int64 { return g.gaps.Load() }

// InFlight returns the number of statements currently holding the gate.
func (g *Gate) InFlight() int64 { return g.state.Load() >> stepperBits }

// Busy reports whether any statement is in flight; the idle pool yields.
func (g *Gate) Busy() bool { return g.InFlight() > 0 }

// QuietFor returns how long the current traffic gap has lasted, or zero if
// a statement is in flight. The idle pool uses it both as a quiet-period
// check and as the ramp signal for longer refinement bursts.
//
// The state and quietSince loads cannot be one atomic read, so both are
// re-validated after the fact: if a statement arrives between the two
// loads, checking state only once would let a caller observe a positive gap
// while traffic is already live — exactly the window that would grant an
// idle burst against an in-flight statement — and if a whole Hold/Release
// cycle lands between the loads, the state re-check alone would still pair
// a quiet state with the PREVIOUS gap's stamp and report a gap spanning the
// busy period. Seeing state==0 on both sides of an unchanged quietSince
// guarantees the returned gap belongs to the gap that was current at the
// read (Release stamps quietSince before decrementing, so a quiet state
// never pairs with an unflushed stamp). The retry only triggers when a
// complete statement cycle fits inside the few-instruction read window, so
// the loop terminates immediately in practice.
func (g *Gate) QuietFor() time.Duration {
	for {
		if g.state.Load()>>stepperBits != 0 {
			return 0
		}
		since := g.quietSince.Load()
		if h := g.testHookQuiet; h != nil {
			h()
		}
		d := time.Duration(time.Now().UnixNano() - since)
		if g.state.Load()>>stepperBits != 0 {
			return 0
		}
		if g.quietSince.Load() != since {
			continue
		}
		if d < 0 {
			d = 0
		}
		return d
	}
}

// StepBegin asks for permission to run one idle refinement step. It grants
// the token — atomically, only while the in-flight statement count is exactly
// zero — and returns true, or returns false if traffic is live. Every
// granted token must be returned with StepEnd.
func (g *Gate) StepBegin() bool {
	for {
		s := g.state.Load()
		if s>>stepperBits != 0 {
			g.rejected.Add(1)
			return false
		}
		if g.state.CompareAndSwap(s, s+1) {
			g.grants.Add(1)
			return true
		}
	}
}

// StepEnd returns a token obtained from StepBegin.
func (g *Gate) StepEnd() {
	g.state.Add(-1)
}

// RunningSteps returns how many granted refinement steps are executing
// right now.
func (g *Gate) RunningSteps() int64 { return g.state.Load() & stepperMask }

// ArrivalRate returns the exponentially-decayed request arrival rate in
// requests per second (half-life one second). It decays toward zero during
// traffic gaps.
func (g *Gate) ArrivalRate() float64 {
	g.rateMu.Lock()
	defer g.rateMu.Unlock()
	g.decayLocked(time.Now().UnixNano())
	return g.rate
}

// bumpRate decays the EWMA to now and credits one arrival.
func (g *Gate) bumpRate() {
	now := time.Now().UnixNano()
	g.rateMu.Lock()
	g.decayLocked(now)
	// Each arrival carries weight λ = ln2/halfLife (in per-second units),
	// the decay rate of the EWMA: an impulse train of r arrivals/sec then
	// sums to r·λ/λ, so a steady stream converges to rate ≈ r.
	g.rate += math.Ln2 * float64(time.Second) / float64(rateHalfLife)
	g.rateMu.Unlock()
}

// decayLocked ages the EWMA to instant now. Callers hold rateMu.
func (g *Gate) decayLocked(now int64) {
	dt := now - g.rateMark
	if dt <= 0 {
		return
	}
	g.rateMark = now
	halves := float64(dt) / float64(rateHalfLife)
	if halves > 60 {
		g.rate = 0
		return
	}
	g.rate *= math.Exp2(-halves)
}

// Stats is a consistent-enough snapshot of the gate's counters for
// reporting. Counters are read individually, so a snapshot taken under
// traffic may be off by in-progress increments; quiesce first for exact
// numbers.
type Stats struct {
	InFlight     int64   `json:"in_flight"`
	RunningSteps int64   `json:"running_steps"`
	Arrivals     int64   `json:"arrivals"`
	Completed    int64   `json:"completed"`
	Writes       int64   `json:"writes"`
	StepGrants   int64   `json:"step_grants"`
	StepRejected int64   `json:"step_rejected"`
	Gaps         int64   `json:"gaps"`
	ArrivalRate  float64 `json:"arrival_rate"`
	QuietForUS   int64   `json:"quiet_for_us"`
}

// Snapshot returns the gate's current counters.
func (g *Gate) Snapshot() Stats {
	return Stats{
		InFlight:     g.InFlight(),
		RunningSteps: g.RunningSteps(),
		Arrivals:     g.arrivals.Load(),
		Completed:    g.completed.Load(),
		Writes:       g.writes.Load(),
		StepGrants:   g.grants.Load(),
		StepRejected: g.rejected.Load(),
		Gaps:         g.gaps.Load(),
		ArrivalRate:  g.ArrivalRate(),
		QuietForUS:   g.QuietFor().Microseconds(),
	}
}
