// Package core implements the holistic tuner — the paper's primary
// contribution. The tuner unifies the three indexing philosophies in one
// continuous loop:
//
//   - like adaptive indexing, all physical design is partial and
//     incremental: the only tuning primitive is a random crack action on
//     some column's cracker index;
//   - like online indexing, the tuner continuously monitors the workload
//     (package stats) and maintains a ranking of which column deserves the
//     next refinement (package costmodel);
//   - like offline indexing, it exploits idle time and a-priori workload
//     knowledge: idle windows are spent on the top-ranked columns, and
//     expected workloads can be seeded before any query arrives.
//
// The ranking answers the paper's central modelling question — "if we detect
// a couple of idle milliseconds, on which column should we apply a random
// crack action?" — with frequency × log2(avgPieceSize / targetPieceSize),
// which is zero once a column's pieces fit the CPU cache (the paper's
// observed point of diminishing returns). Ties rotate round-robin, which is
// exactly the paper's "No Knowledge" behaviour: with nothing observed yet,
// every column has the equal-share prior and actions spread evenly.
//
// In the paper's "No Time" case the tuner adds nothing to a select: the
// query cracks its own two bounds, exactly as adaptive indexing does, and
// the tuner only notes where it landed. Refinement beyond a query's bounds
// is optional work, so it waits for idle time instead of the caller.
//
// The tuner schedules; it owns no index. A Column (shard.Part) holds its
// index and latches, and the tuner only reads its scores and calls one of
// its actions — RandomCrack, RefineRange or MergeStep — with a child RNG
// drawn from the tuner's seeded stream, so a seed fixes every crack.
package core

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"holistic/internal/costmodel"
	"holistic/internal/cracker"
	"holistic/internal/stats"
)

// DefaultMergeQuantum is how many buffered update operations one merge
// action drains — the merge analogue of "one random crack action", sized so
// a step stays in the same latency class as a crack.
const DefaultMergeQuantum = 512

// Config tunes the holistic tuner.
type Config struct {
	// TargetPieceSize is the cache-resident piece size the ranking aims
	// for. <= 0 selects costmodel.DefaultTargetPieceSize.
	TargetPieceSize int
	// Seed seeds the tuner's private RNG for reproducible runs.
	Seed uint64
}

// Column is the tuner's view of one tunable column, implemented by
// shard.Part. The column owns its index and latches: the tuner only scores
// and calls actions, each of which latches the column itself. PieceStats
// reports the pieces and the values they hold — one piece of the live rows
// before the cracked copy exists — and RangePieceAvg the average piece size
// inside a value range, 0 before the cracked copy exists; the auction scores
// a crack with the first and a speculative step with the second (see
// predict.go). PendingOps reports the buffered update operations, which rank
// the merge action; MergeStep drains up to max of them and returns how many
// it applied. RandomCrack is one random crack action and RefineRange one
// speculative refinement of a value range (see the cracker.Index methods of
// the same names); both materialise the cracked copy on first use and return
// the values they partitioned.
type Column interface {
	Name() string
	PieceStats() (pieces, n int)
	RangePieceAvg(lo, hi int64) float64
	PendingOps() int
	MergeStep(max int) int
	RandomCrack(rng *rand.Rand) int
	RefineRange(rng *rand.Rand, lo, hi int64, target float64, cracks int) int
}

// candidate is one bidder in the idle auction: a column, which bids a crack
// or a merge and, in the speculative tier, a pre-crack, or an aux action
// (a checkpoint). Workers claim a candidate with an atomic flag before acting
// on it, so two idle workers never act on the same column — and hence never
// the same piece — or run the same aux action at once, and never queue up
// behind one column's latch while other columns starve.
type candidate struct {
	col  Column    // nil for an aux action
	aux  AuxAction // nil for a column
	busy atomic.Bool
}

// Tuner is the holistic tuning engine. All methods are safe for concurrent
// use; TryStep in particular may be driven by many idle workers at once.
type Tuner struct {
	model     costmodel.Params
	collector *stats.Collector

	mu sync.Mutex
	// cands only ever grows by a copying append (addLocked), so a step reads
	// the slice under mu once and scans it without a lock or a copy.
	cands     []*candidate
	rng       *rand.Rand
	rr        int   // round-robin rotation cursor for rank ties
	actions   int64 // refinement actions performed
	work      int64 // elements touched by those actions
	contended int64 // Steps that yielded to a claimed candidate
	merges    int64 // refinement actions that drained pending updates
	mergedOps int64 // buffered operations applied by those merges
	auxRuns   int64 // aux maintenance actions executed

	specActions int64                    // speculative pre-crack actions performed
	specWork    int64                    // elements touched by speculative actions
	specWins    int64                    // speculated ranges later hit by a query
	specRanges  map[string][]stats.Range // recent speculated ranges per column
}

// NewTuner builds a tuner around a shared workload collector. A nil
// collector gets a private one.
func NewTuner(cfg Config, collector *stats.Collector) *Tuner {
	if collector == nil {
		collector = stats.NewCollector()
	}
	return &Tuner{
		model:     costmodel.Params{TargetPieceSize: cfg.TargetPieceSize},
		collector: collector,
		rng:       rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x5DEECE66D)),
	}
}

// Collector returns the workload statistics collector the tuner consults.
func (t *Tuner) Collector() *stats.Collector { return t.collector }

// childRNG draws an independent generator from the tuner's seeded stream, so
// concurrent actions never share rand state. Deterministic given the seed and
// call order.
func (t *Tuner) childRNG() *rand.Rand {
	t.mu.Lock()
	defer t.mu.Unlock()
	return rand.New(rand.NewPCG(t.rng.Uint64(), t.rng.Uint64()))
}

// Register adds a column to the tuner's candidate set, declaring its value
// domain for the workload sketch's buckets.
func (t *Tuner) Register(c Column, domLo, domHi int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addLocked(&candidate{col: c})
	t.collector.Register(c.Name(), domLo, domHi)
}

// addLocked appends a candidate to a fresh copy of the slice: a step still
// scanning the old one never sees it change. Caller holds t.mu.
func (t *Tuner) addLocked(c *candidate) {
	t.cands = append(t.cands[:len(t.cands):len(t.cands)], c)
}

// NoteQuery records a range query for monitoring. The engine calls it for
// every select the holistic strategy serves.
func (t *Tuner) NoteQuery(col string, lo, hi int64) {
	t.collector.RecordQuery(col, lo, hi)
	t.noteSpecWin(col, lo, hi)
}

// SeedWorkload injects a-priori workload knowledge: weight synthetic
// queries over [lo, hi) of the column. This is the offline-indexing-style
// input for the paper's "Some Idle Time and Enough Knowledge" case — after
// seeding, idle actions concentrate on the seeded columns before any real
// query arrives. It is one weighted observation: seeding expresses mass, not
// a stream of distinct arrivals, so it advances the sketch's decay and epoch
// clocks by a single query.
func (t *Tuner) SeedWorkload(col string, lo, hi int64, weight int) {
	t.collector.RecordWeighted(col, lo, hi, float64(weight))
}

// Actions returns the number of idle refinement actions performed.
func (t *Tuner) Actions() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.actions
}

// Work returns the total elements touched by idle refinement actions.
func (t *Tuner) Work() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.work
}

// Boosts is always 0: a select does only its own cracks. It stays, with
// MaybeBoost, for the benchmark rig (bench/), which calls both by name.
func (t *Tuner) Boosts() int64 { return 0 }

// Merges returns how many refinement actions drained pending updates
// instead of cracking.
func (t *Tuner) Merges() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.merges
}

// MergedOps returns the buffered update operations applied by merge actions.
func (t *Tuner) MergedOps() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.mergedOps
}

// Contended returns how many Steps yielded without acting because no
// unclaimed candidate had work while another worker held one — a diagnostic
// for sizing the idle worker pool against the number of active columns.
func (t *Tuner) Contended() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.contended
}

// action is what a winning bid runs.
type action uint8

const (
	actCrack action = iota // Column.RandomCrack
	actMerge               // Column.MergeStep
	actAux                 // AuxAction.Run
	actSpec                // Column.RefineRange over a predicted range
)

// bid is one candidate's offer in one scan of the auction.
type bid struct {
	c     *candidate
	score float64
	act   action
	r     stats.Range // actSpec only: the predicted range to refine
}

// realBid scores the one action a candidate offers the auction's real tier.
// An aux action bids its own score. A column has up to two actions: drain its
// update backlog (ranked even at zero frequency — reads pay for the backlog
// whether or not the tuner has seen queries) and crack; it bids the better
// one. The crack score is frequency-weighted, so an unqueried, unseeded
// column never ranks. Scoring only reads: a column with no cracked copy yet
// bids as one piece of its live rows, and the step that wins materialises
// it. Scoring takes the index latch, which a worker that has claimed the
// column may hold for a whole crack.
func (t *Tuner) realBid(c *candidate) bid {
	if c.aux != nil {
		return bid{c: c, score: c.aux.Score(), act: actAux}
	}
	b := bid{c: c, act: actCrack}
	freq := t.collector.Frequency(c.col.Name())
	if pending := c.col.PendingOps(); pending > 0 {
		b.score, b.act = t.model.MergeScore(freq, pending), actMerge
	}
	if freq > 0 {
		if pieces, n := c.col.PieceStats(); pieces > 0 {
			if cs := t.model.Score(freq, float64(n)/float64(pieces)); cs > b.score {
				b.score, b.act = cs, actCrack
			}
		}
	}
	return b
}

// scan returns the best positive bid of one tier (realBid or specBid) among
// the unclaimed candidates, and whether any candidate was claimed by another
// worker. A claimed candidate is not scored (see realBid). Ties keep the
// first candidate in rr-rotated order, the round-robin the paper's "No
// Knowledge" case needs.
func scan(cands []*candidate, rr int, tier func(*candidate) bid) (best bid, claimed bool) {
	n := len(cands)
	for i := range n {
		c := cands[(rr+i)%n]
		if c.busy.Load() {
			claimed = true
		} else if b := tier(c); b.score > best.score {
			best = b
		}
	}
	return best, claimed
}

// StepResult classifies one TryStep attempt.
type StepResult int

const (
	// StepWorked: an action ran (its work may still be 0 if the random
	// pivot hit an existing boundary).
	StepWorked StepResult = iota
	// StepContended: nothing unclaimed had work, but another worker held a
	// candidate; nothing ran and nothing was counted. The caller should
	// yield.
	StepContended
	// StepExhausted: no candidate has work left.
	StepExhausted
)

// TryStep runs one idle action: the best bid of one auction over every
// registered column and aux action, returning the work done (elements
// touched) and what happened. Only StepWorked counts toward Actions(); a
// contended attempt is tallied in Contended() instead, so "X refinement
// actions" keeps the paper's meaning under a multi-worker pool.
//
// Speculation is the auction's lower tier (see predict.go). It is reached
// only when no real bid is positive and no candidate is claimed, and only if
// speculate, asked at most once per step, grants a slot; each column then
// bids its best predicted range. A nil speculate never speculates.
//
// TryStep is safe — and useful — to call from many goroutines: each caller
// claims a candidate with an atomic flag before acting, so concurrent
// workers fan out across columns instead of serialising on one latch. The
// action latches the column itself (see Column).
func (t *Tuner) TryStep(speculate func() bool) (work int, res StepResult) {
	t.mu.Lock()
	cands, rr := t.cands, t.rr
	t.rr++
	t.mu.Unlock()
	granted := false
	// A lost claim race rescans: the raced candidate is claimed now, so the
	// next-best wins or the step yields.
	for range len(cands) + 1 {
		b, claimed := scan(cands, rr, t.realBid)
		if b.c == nil && !claimed && speculate != nil && (granted || speculate()) {
			granted = true
			b, claimed = scan(cands, rr, t.specBid)
		}
		if b.c == nil {
			if !claimed {
				return 0, StepExhausted
			}
			break
		}
		if b.c.busy.CompareAndSwap(false, true) {
			return t.run(b), StepWorked
		}
	}
	t.mu.Lock()
	t.contended++
	t.mu.Unlock()
	return 0, StepContended
}

// run performs a claimed bid's action, releases the claim and counts the
// action. Speculative actions are counted apart from Actions (see
// SpecActions).
func (t *Tuner) run(b bid) int {
	var w int
	switch b.act {
	case actCrack:
		w = b.c.col.RandomCrack(t.childRNG())
	case actMerge:
		w = b.c.col.MergeStep(DefaultMergeQuantum)
	case actAux:
		w = b.c.aux.Run()
	case actSpec:
		w = b.c.col.RefineRange(t.childRNG(), b.r.Lo, b.r.Hi, t.model.SpecTarget(), DefaultSpecCracks)
	}
	b.c.busy.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	switch b.act {
	case actSpec:
		t.specActions++
		t.specWork += int64(w)
		t.recordSpecRangeLocked(b.c.col.Name(), b.r)
		return w
	case actMerge:
		t.merges++
		t.mergedOps += int64(w)
	case actAux:
		t.auxRuns++
	}
	t.actions++
	t.work += int64(w)
	return w
}

// runActionsSpinCap bounds how many consecutive contended attempts
// RunActions tolerates before giving up its remaining budget: claims are
// held only for the duration of one crack, so sustained contention means
// more workers than refinable columns.
const runActionsSpinCap = 1 << 12

// RunActions performs up to n refinement actions, returning how many ran
// and the elements they touched. It stops early when every column is
// converged. This implements the paper's idle windows of X actions.
// Contended attempts (another worker holds every refinable column) retry
// after yielding the processor and are not counted as actions.
func (t *Tuner) RunActions(n int) (actions int, work int64) {
	spins := 0
	for actions < n {
		w, res := t.TryStep(nil)
		switch res {
		case StepWorked:
			actions++
			work += int64(w)
			spins = 0
		case StepContended:
			spins++
			if spins > runActionsSpinCap {
				return actions, work
			}
			runtime.Gosched()
		case StepExhausted:
			return actions, work
		}
	}
	return actions, work
}

// RunActionsParallel spreads an idle window of up to n refinement actions
// over a pool of workers: the multi-core version of the paper's "idle time
// is the time needed to apply X random index refinement actions". Workers
// claim slots of the shared budget atomically and fan out across columns
// via TryStep(nil), which never speculates. A worker that gives up under
// contention (more workers than refinable columns) forfeits the slot it
// claimed; once the pool has drained and holds no claim, the forfeited slots
// run serially, so the window performs exactly n actions unless the columns
// converge first. workers <= 1 degrades to the serial RunActions.
func (t *Tuner) RunActionsParallel(n, workers int) (actions int, work int64) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return t.RunActions(n)
	}
	var budget, acts, wrk atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spins := 0
			for budget.Add(1) <= int64(n) {
			attempt:
				w, res := t.TryStep(nil)
				switch res {
				case StepWorked:
					acts.Add(1)
					wrk.Add(int64(w))
					spins = 0
				case StepContended:
					spins++
					if spins > runActionsSpinCap {
						return
					}
					runtime.Gosched()
					goto attempt // retry the claimed budget slot
				case StepExhausted:
					return
				}
			}
		}()
	}
	wg.Wait()
	actions, work = int(acts.Load()), wrk.Load()
	if actions < n {
		a, w := t.RunActions(n - actions)
		actions, work = actions+a, work+w
	}
	return actions, work
}

// MaybeBoost does nothing and returns 0. Query-time cracks beyond a select's
// own bounds are gone: refinement the query did not ask for waits for idle
// time. The method stays for the benchmark rig (bench/), whose shard and
// kernel rungs replay the engine's select loop by name.
func (t *Tuner) MaybeBoost(ix *cracker.Index, col string, lo, hi int64) int { return 0 }
