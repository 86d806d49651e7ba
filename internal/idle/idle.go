// Package idle implements idle-time detection and budgeted tuning work, the
// scheduling substrate of holistic indexing. The paper's defining move is to
// exploit "any idle time as it appears" by spending it on small, preemptible
// index refinement actions. A Runner wraps a step function — one tuning
// action — and drives it in two modes:
//
//   - Manual: RunActions(n) executes a bounded burst synchronously, the
//     paper's own experimental protocol ("we artificially induce and
//     control idle time ... as the time needed to apply X random index
//     refinement actions"). The engine's manual windows (Engine.IdleActions)
//     do not come here: they call the tuner's RunActionsParallel directly.
//   - Automatic: Start launches a pool of background worker goroutines
//     (NewRunner's workers, default GOMAXPROCS) that watch query activity; after a
//     DefaultQuiet traffic gap each worker pulls refinement actions
//     concurrently, backing off the moment a query begins so that tuning
//     work never sits in a query's critical path.
//
// The step is handed a speculate function that grants one slot of the
// current traffic gap's speculative budget (DefaultSpecBudget). The holistic
// tuner asks it only when its auction has no real work and no claimed
// candidate, so a step that runs real work, or yields to another worker,
// spends nothing.
//
// Preemption protocol: a step is claimed, not just run. Every worker (and
// RunActions) first checks that the runner's load gate (internal/loadgate)
// holds no statement, announces its claim, then takes one step token from
// the gate before invoking the step function. The gate issues a token only
// by a compare-and-swap that observes its in-flight count at exactly zero,
// so "statement admitted" and "step started" are ordered by a single
// linearisation point and a refinement action can never start after a query
// (or write) was admitted. There is no check-then-act window left: a
// statement admitted between the worker's check and its CAS fails the CAS
// and the worker yields. Steps themselves are small (one crack action, one
// merge quantum) and therefore bounded-latency, which is the granularity the
// paper's "small, preemptible actions" design calls for. The step function
// must be safe for concurrent calls when the pool has more than one worker;
// the holistic tuner guarantees this via per-column action claims and the
// cracker index's own latch.
//
// The gate is the runner's only idle signal. NewRunner gives the runner a
// gate of its own, on which the engine brackets every select and write;
// behind a network frontend the engine swaps in the server's gate
// (SetGate), which also holds every request from admission to response, so
// a request that is queued, parsing or serialising keeps the pool out of
// the way too. Either way the workers wake only once the gate's current
// traffic gap has lasted DefaultQuiet, and sustained gaps ramp the
// per-wakeup burst of DefaultQuantum actions up to MaxRamp times, so the pool
// works harder the longer the system stays quiet.
package idle

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"holistic/internal/loadgate"
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

// DefaultSpecBudget is the per-gap cap on speculative actions: two base
// quanta. A wrong forecast therefore burns at most a bounded fraction
// of one traffic gap's idle capacity (a long gap ramps real work up to
// MaxRamp×quantum per worker per wakeup, but speculation stays capped), and
// never a query's critical path — speculative steps run under the same
// zero-in-flight tokens as real ones.
const DefaultSpecBudget = 2 * DefaultQuantum

// Runner schedules tuning actions into idle time. All methods are safe for
// concurrent use.
type Runner struct {
	step    func(speculate func() bool) bool // one tuning action; false = nothing ran
	quiet   time.Duration                    // DefaultQuiet; the package's tests shorten it
	quantum int                              // DefaultQuantum; the package's tests change it
	workers int

	// gate is the runner's only admission state: statements hold it, every
	// step takes one token from it, and its quiet clock times the gaps.
	// Atomic because SetGate may swap it while the pool is running.
	gate    atomic.Pointer[loadgate.Gate]
	actions atomic.Int64 // total actions executed
	stopped atomic.Bool

	// Speculative budget: the step's speculate argument takes one of the
	// current gap's slots. The budget is per traffic gap — it resets when
	// the gate's gap count moves — so a wrong forecast burns at most
	// DefaultSpecBudget slots before real traffic re-arms it, and zero slots
	// while traffic is live (the step runs inside the claim/token scope).
	specMu    sync.Mutex
	specGap   int64 // gate gap count specSpent belongs to; guarded by specMu
	specSpent int64 // slots consumed in gap specGap; guarded by specMu

	// testHookClaim, when non-nil, runs between a step's claim and the
	// atomic token grant. Tests use it to provoke the
	// query-arrives-mid-claim interleaving deterministically. Set before
	// Start/RunActions; never mutated while workers run.
	testHookClaim func()

	mu     sync.Mutex // guards start/stop state
	stopCh chan struct{}
	wg     sync.WaitGroup
}

// NewRunner wraps one tuning step with an automatic pool of workers
// goroutines; workers <= 0 means GOMAXPROCS, one refinement stream per core,
// the multi-core holistic posture. With a pool larger than one the step
// function must be safe to call concurrently: it takes whatever latches it
// needs itself. The step reports whether an action ran. Each call of its
// speculate argument charges a slot, granted or not, so even a maximally
// wrong forecast costs a bounded slice of idle capacity.
func NewRunner(step func(speculate func() bool) bool, workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	r := &Runner{
		step:    step,
		quiet:   DefaultQuiet,
		quantum: DefaultQuantum,
		workers: workers,
	}
	r.gate.Store(loadgate.New())
	return r
}

// Gate returns the load gate statements must hold while they run: no step
// starts while the gate has one in flight.
func (r *Runner) Gate() *loadgate.Gate { return r.gate.Load() }

// SetGate replaces the runner's own gate with g (the network server's, so
// that requests hold it from admission on). Call it before traffic starts:
// a statement holding the old gate is invisible to the new one. A nil g is
// ignored.
func (r *Runner) SetGate(g *loadgate.Gate) {
	if g != nil {
		r.gate.Store(g)
	}
}

// Actions returns the total number of tuning actions executed so far (both
// manual and automatic).
func (r *Runner) Actions() int64 { return r.actions.Load() }

// SetClaimHook installs a function that runs between a step's claim and the
// atomic token grant, or removes it (nil). Tests use it to provoke the
// query-arrives-mid-claim interleaving deterministically; it must be set
// while no workers run.
func (r *Runner) SetClaimHook(h func()) { r.testHookClaim = h }

// SpecSpent returns how many speculative slots the current traffic gap has
// consumed; it never exceeds DefaultSpecBudget within a gap.
func (r *Runner) SpecSpent() int64 {
	r.specMu.Lock()
	defer r.specMu.Unlock()
	if r.specGap != r.Gate().Gaps() {
		return 0
	}
	return r.specSpent
}

// claimSpecSlot takes one speculative budget slot for the current gap of g,
// or reports the cap reached. The first claim after g's gap count moved
// re-arms the budget.
func (r *Runner) claimSpecSlot(g *loadgate.Gate) bool {
	r.specMu.Lock()
	defer r.specMu.Unlock()
	if gap := g.Gaps(); gap != r.specGap {
		r.specGap, r.specSpent = gap, 0
	}
	if r.specSpent >= DefaultSpecBudget {
		return false
	}
	r.specSpent++
	return true
}

// claimStep attempts to run exactly one tuning action. After the
// preliminary idle check it takes one step token from the gate — a CAS that
// only succeeds while the gate's in-flight count is exactly zero — so a
// statement admitted at any point before the token grant forces a yield;
// there is no re-check race left. It reports whether an action executed.
func (r *Runner) claimStep() bool {
	g := r.Gate()
	if g.Busy() {
		return false
	}
	if h := r.testHookClaim; h != nil {
		h()
	}
	if !g.StepBegin() {
		// A statement arrived after the claim: yield without stepping.
		return false
	}
	defer g.StepEnd()
	if !r.step(func() bool { return r.claimSpecSlot(g) }) {
		return false
	}
	r.actions.Add(1)
	return true
}

// RunActions synchronously executes up to n tuning actions, stopping early
// if the step function runs none or the gate is held. It returns the number
// of actions actually executed.
func (r *Runner) RunActions(n int) int {
	done := 0
	for done < n && r.claimStep() {
		done++
	}
	return done
}

// idleNow reports whether the system has been quiet long enough: nothing
// holds the gate and its current gap has lasted the quiet period (QuietFor
// is zero while the gate is held).
func (r *Runner) idleNow() bool { return r.Gate().QuietFor() >= r.quiet }

// burst returns how many actions a worker should attempt this wakeup. The
// base quantum is multiplied by how many quiet periods the current traffic
// gap spans (capped at MaxRamp), so the pool ramps up during sustained gaps
// and falls back to cautious quanta the moment traffic resumes.
func (r *Runner) burst() int {
	mult := int(r.Gate().QuietFor() / r.quiet)
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
				if !r.claimStep() {
					break
				}
			}
		}
	}
}
