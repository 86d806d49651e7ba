package idle

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"holistic/internal/core"
)

func TestRunActionsBounded(t *testing.T) {
	var calls atomic.Int64
	r := NewRunner(func() bool { calls.Add(1); return true }, 0)
	if got := r.RunActions(25); got != 25 {
		t.Fatalf("ran %d actions", got)
	}
	if calls.Load() != 25 || r.Actions() != 25 {
		t.Fatalf("calls=%d actions=%d", calls.Load(), r.Actions())
	}
}

func TestRunActionsStopsOnExhaustion(t *testing.T) {
	left := 7
	r := NewRunner(func() bool {
		if left == 0 {
			return false
		}
		left--
		return true
	}, 0)
	if got := r.RunActions(100); got != 7 {
		t.Fatalf("ran %d actions, want 7", got)
	}
}

// newTimedRunner is NewRunner with the automatic pool's quiet period and
// per-wakeup quantum replaced, so the pool's timing tests run in
// milliseconds.
func newTimedRunner(step func() bool, quiet time.Duration, quantum, workers int) *Runner {
	r := NewRunner(step, workers)
	r.quiet, r.quantum = quiet, quantum
	return r
}

// waitFor polls cond until it holds, failing the test with msg after 2s.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
	}
}

// checkPoolYields starts r's pool with admit already called, checks that no
// action runs while the statement is in flight, then calls release and waits
// for the pool to resume in the traffic gap.
func checkPoolYields(t *testing.T, r *Runner, calls *atomic.Int64, admit, release func()) {
	t.Helper()
	admit() // the system is busy before the pool even starts
	r.Start()
	defer r.Stop()
	time.Sleep(20 * time.Millisecond)
	if n := calls.Load(); n != 0 {
		t.Fatalf("pool ran %d actions while a statement was in flight", n)
	}
	release()
	waitFor(t, func() bool { return calls.Load() > 0 }, "pool never resumed after the traffic gap began")
}

// TestRunActionsPreemptedByActiveQuery: a manual idle window runs nothing
// while a statement holds the runner's own gate.
func TestRunActionsPreemptedByActiveQuery(t *testing.T) {
	var calls atomic.Int64
	r := NewRunner(func() bool { calls.Add(1); return true }, 0)
	r.Gate().Hold()
	if got := r.RunActions(50); got != 0 {
		t.Fatalf("ran %d actions while a statement was in flight", got)
	}
	r.Gate().Release()
	if got := r.RunActions(5); got != 5 {
		t.Fatalf("ran %d actions after the statement ended", got)
	}
}

func TestAutomaticRunsWhenQuiet(t *testing.T) {
	var calls atomic.Int64
	r := newTimedRunner(func() bool { calls.Add(1); return true }, 2*time.Millisecond, 8, 0)
	r.Start()
	defer r.Stop()
	waitFor(t, func() bool { return calls.Load() >= 8 }, "automatic runner never executed 8 actions")
}

// TestAutomaticYieldsToQueries: a one-worker pool stays off while a
// statement holds the runner's own gate, and resumes once it ends.
func TestAutomaticYieldsToQueries(t *testing.T) {
	var calls atomic.Int64
	r := newTimedRunner(func() bool { calls.Add(1); return true }, time.Millisecond, 4, 0)
	checkPoolYields(t, r, &calls, r.Gate().Hold, r.Gate().Release)
}

func TestStartStopIdempotent(t *testing.T) {
	r := newTimedRunner(func() bool { return true }, time.Millisecond, DefaultQuantum, 0)
	r.Start()
	r.Start() // second start is a no-op
	r.Stop()
	r.Stop() // second stop is a no-op
	// Restart works.
	r.Start()
	r.Stop()
}

func TestStopHaltsWork(t *testing.T) {
	var calls atomic.Int64
	r := newTimedRunner(func() bool { calls.Add(1); return true }, time.Millisecond, 4, 0)
	r.Start()
	waitFor(t, func() bool { return calls.Load() > 0 }, "worker never started")
	r.Stop()
	after := calls.Load()
	time.Sleep(10 * time.Millisecond)
	if calls.Load() != after {
		t.Fatalf("worker kept running after Stop: %d -> %d", after, calls.Load())
	}
}

func TestManualWhileAutomaticRunning(t *testing.T) {
	var calls atomic.Int64
	r := newTimedRunner(func() bool { calls.Add(1); return true },
		time.Hour, DefaultQuantum, 0) // automatic effectively never fires
	r.Start()
	defer r.Stop()
	if got := r.RunActions(10); got != 10 {
		t.Fatalf("manual actions under automatic mode: %d", got)
	}
}

func TestOptionsValidation(t *testing.T) {
	r := NewRunner(func() bool { return true }, 0)
	if r.quiet != DefaultQuiet || r.quantum != DefaultQuantum {
		t.Fatalf("runner timing quiet=%v quantum=%d, want the defaults", r.quiet, r.quantum)
	}
	if r.workers < 1 {
		t.Fatalf("worker pool default %d, want >= 1", r.workers)
	}
	if r := NewRunner(func() bool { return true }, 3); r.workers != 3 {
		t.Fatalf("worker pool %d, want 3", r.workers)
	}
}

// TestClaimRecheckPreemptsStep is the regression test for the TOCTOU between
// the idle check and the step: a statement admitted after a worker has
// claimed a step but before its token grant must stop the step. The test
// hook injects the admission deterministically inside the claim window —
// exactly the interleaving the old single-check code lost.
func TestClaimRecheckPreemptsStep(t *testing.T) {
	var calls atomic.Int64
	r := NewRunner(func() bool { calls.Add(1); return true }, 0)
	g := r.Gate()
	r.testHookClaim = g.Hold
	if got := r.RunActions(1); got != 0 {
		t.Fatalf("ran %d actions despite a statement admitted inside the claim", got)
	}
	if calls.Load() != 0 {
		t.Fatalf("step executed %d times in the statement's critical path", calls.Load())
	}
	// After the statement drains, the runner proceeds again.
	r.testHookClaim = nil
	g.Release()
	if got := r.RunActions(3); got != 3 {
		t.Fatalf("ran %d actions after the statement ended, want 3", got)
	}
}

// TestClaimHookSeesTokenDenied drives the same mid-claim interleaving through
// the exported hook (what out-of-package tests use) and pins the token
// mechanics: the gate's CAS must refuse the grant, and the refusal must leave
// no token behind.
func TestClaimHookSeesTokenDenied(t *testing.T) {
	var calls atomic.Int64
	r := NewRunner(func() bool { calls.Add(1); return true }, 0)
	g := r.Gate()
	r.SetClaimHook(g.Hold)
	if got := r.RunActions(1); got != 0 || calls.Load() != 0 {
		t.Fatalf("ran %d actions (%d steps) despite a write admitted inside the claim", got, calls.Load())
	}
	if s := g.Snapshot(); s.RunningSteps != 0 || s.StepRejected != 1 {
		t.Fatalf("token grant did not refuse cleanly: %+v", s)
	}
	r.SetClaimHook(nil)
	g.Release()
	if got := r.RunActions(2); got != 2 {
		t.Fatalf("ran %d actions after the write ended, want 2", got)
	}
}

// TestStepNeverStartsAfterAdmission is the rendezvous proof for the write
// path: once a write has been admitted (Hold returned), no tuning step
// may start until it completes. Steppers race for tokens while the main
// goroutine repeatedly admits a write, waits for pre-admission steps to
// drain (steps are bounded), and then verifies the action counter is frozen
// — any increment after the drain would mean a step token was granted
// against a live admission, the exact check-then-act bug the gate's
// packed-word CAS removes. Run under -race this also exercises the token path for data races.
func TestStepNeverStartsAfterAdmission(t *testing.T) {
	var stop atomic.Bool
	r := NewRunner(func() bool { return true }, 0)
	g := r.Gate()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				r.RunActions(1)
				runtime.Gosched() // the real pool sleeps between wakeups
			}
		}()
	}
	for k := 0; k < 100; k++ {
		g.Hold()
		// Steps granted before the admission are allowed to finish; wait
		// them out (each is a no-op here, so this is instant in practice).
		for g.RunningSteps() != 0 {
			runtime.Gosched()
		}
		before := r.Actions()
		for i := 0; i < 50; i++ {
			runtime.Gosched()
		}
		if got := r.Actions(); got != before {
			t.Fatalf("%d steps started while a write was admitted", got-before)
		}
		g.Release()
	}
	stop.Store(true)
	wg.Wait()
	if g.RunningSteps() != 0 {
		t.Fatalf("unbalanced tokens after drain: %d", g.RunningSteps())
	}
}

// TestWorkerPoolRunsConcurrently starts a multi-worker pool and checks that
// more than one worker is inside the step function at the same time.
func TestWorkerPoolRunsConcurrently(t *testing.T) {
	var inStep, maxInStep, calls atomic.Int64
	r := newTimedRunner(func() bool {
		n := inStep.Add(1)
		for {
			m := maxInStep.Load()
			if n <= m || maxInStep.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond) // hold the step open so workers overlap
		inStep.Add(-1)
		calls.Add(1)
		return true
	}, time.Millisecond, 64, 4)
	if r.workers != 4 {
		t.Fatalf("workers = %d, want 4", r.workers)
	}
	r.Start()
	defer r.Stop()
	deadline := time.After(5 * time.Second)
	for calls.Load() < 64 {
		select {
		case <-deadline:
			t.Fatalf("pool executed only %d actions", calls.Load())
		default:
			time.Sleep(time.Millisecond)
		}
	}
	r.Stop()
	// On a single-core runner the scheduler may never overlap the workers;
	// only assert overlap when parallelism is actually available.
	if runtime.GOMAXPROCS(0) >= 2 && maxInStep.Load() < 2 {
		t.Fatalf("max concurrent steps %d, want >= 2", maxInStep.Load())
	}
	t.Logf("max concurrent steps: %d", maxInStep.Load())
}

// TestPoolYieldsToQueries: every worker in a 4-wide pool must stop pulling
// actions while a statement holds the runner's own gate.
func TestPoolYieldsToQueries(t *testing.T) {
	var calls atomic.Int64
	r := newTimedRunner(func() bool { calls.Add(1); return true }, time.Millisecond, 4, 4)
	checkPoolYields(t, r, &calls, r.Gate().Hold, r.Gate().Release)
}

// blockingColumn is one coarse core.Column whose crack blocks until release
// is closed, announcing on entered that a worker holds its claim.
type blockingColumn struct {
	entered, release chan struct{}
}

func (c *blockingColumn) Name() string                { return "r.a" }
func (c *blockingColumn) PieceStats() (pieces, n int) { return 1, 1 << 20 }
func (c *blockingColumn) PendingOps() int             { return 0 }
func (c *blockingColumn) MergeStep(int) int           { return 0 }
func (c *blockingColumn) RandomCrack(*rand.Rand) int {
	c.entered <- struct{}{}
	<-c.release
	return 1
}

// A step that finds the only column claimed by another worker yields as
// contended: nothing runs, the runner counts no action and the tuner counts
// one contended step. The runner is wired as engine.New wires it.
func TestContendedStepYields(t *testing.T) {
	col := &blockingColumn{entered: make(chan struct{}), release: make(chan struct{})}
	tn := core.NewTuner(core.Config{Seed: 1}, nil)
	tn.Register(col, 0, 1<<20)
	tn.NoteQuery(col.Name(), 0, 100)
	r := NewRunner(func() bool {
		_, res := tn.TryStep()
		return res == core.StepWorked
	}, 1)

	done := make(chan struct{})
	go func() { // another worker, holding the column's claim mid-crack
		defer close(done)
		tn.TryStep()
	}()
	<-col.entered
	ran := r.RunActions(1)
	close(col.release)
	<-done
	if ran != 0 || r.Actions() != 0 {
		t.Fatalf("RunActions = %d (Actions %d) while the only column was claimed", ran, r.Actions())
	}
	if got := tn.Contended(); got != 1 {
		t.Fatalf("Contended = %d, want 1", got)
	}
}
