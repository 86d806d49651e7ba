// Package idle implements idle-time detection and budgeted tuning work, the
// scheduling substrate of holistic indexing. The paper's defining move is to
// exploit "any idle time as it appears" by spending it on small, preemptible
// index refinement actions. A Runner wraps a step function — one refinement
// action — and drives it in two modes:
//
//   - Manual: RunActions(n) executes a bounded burst synchronously. This is
//     the paper's own experimental protocol ("we artificially induce and
//     control idle time ... as the time needed to apply X random index
//     refinement actions") and what the benchmark harness uses.
//   - Automatic: Start launches a pool of background worker goroutines
//     (WithWorkers, default GOMAXPROCS) that watch query activity; after a
//     configurable quiet period each worker pulls refinement actions
//     concurrently, backing off the moment a query begins so that tuning
//     work never sits in a query's critical path.
//
// Preemption protocol: a step is claimed, not just run. Every worker (and
// RunActions) first checks that no query is active, announces its claim,
// then atomically takes a step token before invoking the step function. The
// token lives in one packed atomic word alongside the in-flight query count
// (the same construction internal/loadgate uses for network traffic), and
// is only ever issued by a compare-and-swap that observes the query count
// at exactly zero — so "query admitted" and "step started" are ordered by a
// single linearisation point and a refinement action can never start after
// a query (or write) was admitted. There is no check-then-act window left:
// a QueryBegin between the worker's load and its CAS fails the CAS and the
// worker yields. Steps themselves are small (one crack action, one merge
// quantum) and therefore bounded-latency, which is the granularity the
// paper's "small, preemptible actions" design calls for. The step function
// must be safe for concurrent calls when the pool has more than one worker;
// the holistic tuner guarantees this via per-column action claims and the
// cracker index's own latch.
//
// Behind a network frontend, "a query is active" is too narrow a signal:
// requests spend time queued, parsing and serialising around the engine
// call, and the pool should already be out of the way. SetGate attaches an
// external load signal (internal/loadgate) that the workers consult the
// same way: a busy gate vetoes claims, the gate's quiet period must elapse
// before the pool wakes, and each step additionally takes an atomic token
// from the gate so a step never starts against live traffic. Sustained
// traffic gaps ramp the per-wakeup burst up (see WithQuantum), so the pool
// automatically works harder the longer the system stays quiet.
package idle

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultQuiet is the quiet period after the last query before the automatic
// runner considers the system idle.
const DefaultQuiet = 10 * time.Millisecond

// DefaultQuantum is how many actions each automatic worker performs per
// wakeup before re-checking for activity.
const DefaultQuantum = 16

// MaxRamp caps the burst multiplier a long traffic gap can earn: a worker
// never runs more than MaxRamp×quantum actions per wakeup, so the latency
// of yielding to a fresh request stays bounded.
const MaxRamp = 8

// DefaultSpecBudget is the default per-gap cap on speculative actions: two
// base quanta. A wrong forecast therefore burns at most a bounded fraction
// of one traffic gap's idle capacity (a long gap ramps real work up to
// MaxRamp×quantum per worker per wakeup, but speculation stays capped), and
// never a query's critical path — speculative steps run under the same
// zero-in-flight tokens as real ones.
const DefaultSpecBudget = 2 * DefaultQuantum

// Gate is an external load signal the automatic workers yield to, in
// addition to the engine-level query activity they already track. It is
// implemented by internal/loadgate for the network server: Busy vetoes
// claims while requests are in flight (queued or executing), QuietFor gates
// wakeups on the traffic gap length (and ramps burst sizes during long
// gaps), and StepBegin/StepEnd bracket every step with an atomic token so a
// refinement action can never start while traffic is live.
type Gate interface {
	Busy() bool
	QuietFor() time.Duration
	StepBegin() bool
	StepEnd()
}

// Runner schedules tuning actions into idle time. All methods are safe for
// concurrent use.
type Runner struct {
	step    func() bool // one tuning action; false = nothing left to do
	quiet   time.Duration
	quantum int
	workers int

	// state packs the in-flight query count (upper bits, from queryShift)
	// and the running step count (lower bits) into one atomic word so the
	// zero-queries check and the step-token grant are a single CAS.
	state   atomic.Int64
	lastEnd atomic.Int64 // UnixNano of last query completion
	actions atomic.Int64 // total actions executed
	stopped atomic.Bool
	gate    atomic.Value // Gate; external load signal, nil until SetGate

	// Speculative drain: when real refinement reports exhaustion, a worker
	// may spend one of the current gap's budget slots on specStep (a
	// forecast-driven pre-crack). The budget is per traffic gap — every
	// QueryBegin resets specSpent — so a wrong forecast burns at most
	// specBudget slots before real traffic re-arms it, and zero slots while
	// traffic is live (spec steps run inside the same claim/token scope as
	// real ones).
	specStep    func() bool // nil = speculation disabled
	specBudget  int
	specSpent   atomic.Int64 // slots consumed this gap
	specActions atomic.Int64 // speculative steps that did work, ever

	// testHookClaim, when non-nil, runs between a step's claim and the
	// atomic token grant. Tests use it to provoke the
	// query-arrives-mid-claim interleaving deterministically. Set before
	// Start/RunActions; never mutated while workers run.
	testHookClaim func()

	mu     sync.Mutex // guards start/stop state
	stopCh chan struct{}
	wg     sync.WaitGroup
}

// Option configures a Runner.
type Option func(*Runner)

// WithQuiet sets the idle-detection quiet period for automatic mode.
func WithQuiet(d time.Duration) Option {
	return func(r *Runner) {
		if d > 0 {
			r.quiet = d
		}
	}
}

// WithQuantum sets the actions-per-wakeup burst size for automatic mode.
func WithQuantum(n int) Option {
	return func(r *Runner) {
		if n > 0 {
			r.quantum = n
		}
	}
}

// WithWorkers sets the size of the automatic worker pool. The default is
// GOMAXPROCS: one refinement stream per core, the multi-core holistic
// posture. n <= 0 keeps the default.
func WithWorkers(n int) Option {
	return func(r *Runner) {
		if n > 0 {
			r.workers = n
		}
	}
}

// NewRunner wraps one tuning step. With a worker pool larger than one the
// step function must be safe to call concurrently: it takes whatever latches
// it needs itself.
func NewRunner(step func() bool, opts ...Option) *Runner {
	r := &Runner{
		step:    step,
		quiet:   DefaultQuiet,
		quantum: DefaultQuantum,
		workers: runtime.GOMAXPROCS(0),
	}
	for _, o := range opts {
		o(r)
	}
	r.lastEnd.Store(time.Now().UnixNano())
	return r
}

// Workers returns the size of the automatic worker pool.
func (r *Runner) Workers() int { return r.workers }

// SetGate attaches an external load gate. It may be called while the pool
// is running (the server wires the gate after the engine is built); passing
// the same gate again is harmless. The gate cannot be detached — a serving
// frontend never stops being the load authority.
func (r *Runner) SetGate(g Gate) {
	if g != nil {
		r.gate.Store(g)
	}
}

// loadGate returns the attached gate, or nil.
func (r *Runner) loadGate() Gate {
	if v := r.gate.Load(); v != nil {
		return v.(Gate)
	}
	return nil
}

// queryShift positions the in-flight query count above the running step
// count in Runner.state, leaving 24 bits for concurrent steps — far above
// any worker pool size.
const queryShift = 24

// QueryBegin tells the runner a query entered the system. Automatic workers
// finish their current step (steps are bounded: one crack, one merge
// quantum) and then yield; no new step token is granted until the query
// completes. Real traffic also re-arms the speculative budget: the cap is
// per traffic gap, not global.
func (r *Runner) QueryBegin() {
	r.state.Add(1 << queryShift)
	if r.specStep != nil {
		r.specSpent.Store(0)
	}
}

// QueryEnd tells the runner a query completed, restarting the quiet clock.
// The clock is stamped before the count drops so a worker that observes
// zero queries always observes a fresh quiet timestamp too.
func (r *Runner) QueryEnd() {
	r.lastEnd.Store(time.Now().UnixNano())
	r.state.Add(-1 << queryShift)
}

// activeQueries returns the in-flight query count.
func (r *Runner) activeQueries() int64 { return r.state.Load() >> queryShift }

// RunningSteps returns how many tuning steps are executing right now.
func (r *Runner) RunningSteps() int64 { return r.state.Load() & (1<<queryShift - 1) }

// stepBegin atomically grants a step token iff no query is in flight: the
// CAS fails if anything — in particular a QueryBegin — touched the state
// word after the load, so a token is never issued concurrently with an
// admission. Callers that got true must call stepEnd after the step.
func (r *Runner) stepBegin() bool {
	for {
		s := r.state.Load()
		if s>>queryShift > 0 {
			return false
		}
		if r.state.CompareAndSwap(s, s+1) {
			return true
		}
	}
}

func (r *Runner) stepEnd() { r.state.Add(-1) }

// Actions returns the total number of tuning actions executed so far (both
// manual and automatic).
func (r *Runner) Actions() int64 { return r.actions.Load() }

// SetClaimHook installs a function that runs between a step's claim and the
// atomic token grant, or removes it (nil). Tests use it to provoke the
// query-arrives-mid-claim interleaving deterministically; it must be set
// while no workers run.
func (r *Runner) SetClaimHook(h func()) { r.testHookClaim = h }

// SetSpeculative attaches a speculative step the runner may drain AFTER real
// refinement reports exhaustion, capped at perGapBudget slots per traffic
// gap (<= 0 selects DefaultSpecBudget). The step runs inside the same
// zero-in-flight claim/token scope as real steps, so speculation inherits
// the never-against-traffic guarantee verbatim. Must be set while no workers
// run (the engine wires it at construction). Failed attempts (the step
// found nothing worth pre-cracking) consume budget too: the cap bounds how
// often a gap even *tries* to speculate, which is what makes a maximally
// wrong forecast cost a bounded slice of idle capacity.
func (r *Runner) SetSpeculative(step func() bool, perGapBudget int) {
	if step == nil {
		return
	}
	if perGapBudget <= 0 {
		perGapBudget = DefaultSpecBudget
	}
	r.specStep = step
	r.specBudget = perGapBudget
}

// Speculative reports whether a speculative step is attached.
func (r *Runner) Speculative() bool { return r.specStep != nil }

// SpecBudget returns the per-gap speculative slot cap (0 when disabled).
func (r *Runner) SpecBudget() int { return r.specBudget }

// SpecSpent returns how many speculative slots the current traffic gap has
// consumed; it never exceeds SpecBudget within a gap.
func (r *Runner) SpecSpent() int64 { return r.specSpent.Load() }

// SpecActions returns the total number of speculative steps that performed
// work. They are also included in Actions.
func (r *Runner) SpecActions() int64 { return r.specActions.Load() }

// claimSpecSlot takes one speculative budget slot for the current gap, or
// reports the cap reached. A QueryBegin racing the CAS can only reset the
// counter to zero — the cap is never exceeded within a gap.
func (r *Runner) claimSpecSlot() bool {
	for {
		n := r.specSpent.Load()
		if n >= int64(r.specBudget) {
			return false
		}
		if r.specSpent.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// claimStep attempts to run exactly one tuning action. After the
// preliminary idle checks it takes the runner's step token — a CAS that
// only succeeds while the in-flight query count is exactly zero — so a
// query admitted at any point before the token grant forces a yield; there
// is no re-check race left. With a load gate attached the step additionally
// holds a gate token under the same zero-in-flight rule for network
// traffic. ran reports whether the step executed; more is false only when
// the step function reports exhaustion.
func (r *Runner) claimStep() (ran, more bool) {
	if r.activeQueries() > 0 {
		return false, true
	}
	g := r.loadGate()
	if g != nil && g.Busy() {
		return false, true
	}
	if h := r.testHookClaim; h != nil {
		h()
	}
	if g != nil {
		if !g.StepBegin() {
			// A request arrived after the claim: yield without stepping.
			return false, true
		}
		defer g.StepEnd()
	}
	if !r.stepBegin() {
		// A query slipped in after the claim: yield without stepping.
		return false, true
	}
	defer r.stepEnd()
	if !r.step() {
		// Real refinement is exhausted; spend one speculative budget slot if
		// the gap still has one. The tokens taken above stay held, so the
		// speculative step is gated against traffic exactly like a real one.
		if r.specStep == nil || !r.claimSpecSlot() {
			return false, false
		}
		if !r.specStep() {
			return false, false
		}
		r.specActions.Add(1)
		r.actions.Add(1)
		return true, true
	}
	r.actions.Add(1)
	return true, true
}

// RunActions synchronously executes up to n tuning actions, stopping early
// if the step function reports exhaustion or a query becomes active. It
// returns the number of actions actually executed. This is the manual idle
// injection the experiments use.
func (r *Runner) RunActions(n int) int {
	done := 0
	for i := 0; i < n; i++ {
		ran, _ := r.claimStep()
		if !ran {
			break // preempted by a query, or exhausted
		}
		done++
	}
	return done
}

// idleNow reports whether the system has been quiet long enough: no active
// query, the engine-level quiet period elapsed, and — with a load gate
// attached — no request in flight and the traffic gap at least as long.
func (r *Runner) idleNow() bool {
	if r.activeQueries() > 0 {
		return false
	}
	if g := r.loadGate(); g != nil {
		if g.Busy() || g.QuietFor() < r.quiet {
			return false
		}
	}
	last := time.Unix(0, r.lastEnd.Load())
	return time.Since(last) >= r.quiet
}

// burst returns how many actions a worker should attempt this wakeup. The
// base quantum is multiplied by how many quiet periods the current traffic
// gap spans (capped at MaxRamp), so the pool ramps up during sustained gaps
// and falls back to cautious quanta the moment traffic resumes.
func (r *Runner) burst() int {
	g := r.loadGate()
	if g == nil {
		return r.quantum
	}
	mult := int(g.QuietFor() / r.quiet)
	if mult < 1 {
		mult = 1
	} else if mult > MaxRamp {
		mult = MaxRamp
	}
	return r.quantum * mult
}

// Start launches the automatic worker pool. It is a no-op if already
// running.
func (r *Runner) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopCh != nil {
		return
	}
	r.stopped.Store(false)
	r.stopCh = make(chan struct{})
	for i := 0; i < r.workers; i++ {
		r.wg.Add(1)
		go r.loop(r.stopCh)
	}
}

// Stop halts the automatic worker pool and waits for every worker to exit.
// Manual RunActions remains available. It is a no-op if not running.
func (r *Runner) Stop() {
	r.mu.Lock()
	ch := r.stopCh
	r.stopCh = nil
	r.mu.Unlock()
	if ch == nil {
		return
	}
	r.stopped.Store(true)
	close(ch)
	r.wg.Wait()
}

func (r *Runner) loop(stop <-chan struct{}) {
	defer r.wg.Done()
	tick := r.quiet / 4
	if tick <= 0 {
		tick = time.Millisecond
	}
	timer := time.NewTicker(tick)
	defer timer.Stop()
	for {
		select {
		case <-stop:
			return
		case <-timer.C:
			if !r.idleNow() {
				continue
			}
			for i, n := 0, r.burst(); i < n; i++ {
				if r.stopped.Load() {
					break
				}
				ran, more := r.claimStep()
				if !ran || !more {
					break
				}
			}
		}
	}
}
