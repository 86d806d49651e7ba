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

// Defaults for Config fields left zero.
const (
	// DefaultCrackRetries is how many random pivots a Step tries before
	// falling back to cracking the largest piece.
	DefaultCrackRetries = 3
	// DefaultMergeQuantum is how many buffered update operations one merge
	// action drains — the merge analogue of "one random crack action",
	// sized so a step stays in the same latency class as a crack.
	DefaultMergeQuantum = 512
)

// Config tunes the holistic tuner.
type Config struct {
	// TargetPieceSize is the cache-resident piece size the ranking aims
	// for. <= 0 selects costmodel.DefaultTargetPieceSize.
	TargetPieceSize int
	// Seed seeds the tuner's private RNG for reproducible runs.
	Seed uint64
}

// Column is the tuner's view of one tunable column, implemented by the
// engine. Lock/Unlock take the column's exclusive latch; RLock/RUnlock take
// it shared. CrackIndex materialises the cracked copy on first use and is
// only called with the exclusive latch held; the returned index is stable
// thereafter and latches itself, so refinement runs under the shared column
// latch (see cracker.Index). RangePieceAvg reports the average piece size
// inside a value range, or 0 before the cracked copy exists, without the
// caller holding any latch; the speculative step scores predicted ranges
// with it (see predict.go). PieceStats reports the pieces and the values they
// hold — one piece of the live rows before the cracked copy exists — also
// without the caller holding any latch; the auction scores a crack with it.
type Column interface {
	Name() string
	Lock()
	Unlock()
	RLock()
	RUnlock()
	CrackIndex() *cracker.Index
	RangePieceAvg(lo, hi int64) float64
	PieceStats() (pieces, n int)
}

// Merger is the optional extension of Column for columns with a batched
// ingest queue: merging buffered updates into the indexed structures is a
// refinement action in its own right, ranked against cracking in the same
// per-shard action queue (see costmodel.MergeScore). PendingOps reports the
// buffered operation count without latching; MergeStep drains up to max
// operations (taking the column's exclusive latch itself) and returns how
// many it applied.
type Merger interface {
	PendingOps() int
	MergeStep(max int) int
}

// shard is the tuner's per-column slice of the pending-action queue. Workers
// claim a shard with an atomic flag before acting on it, so two idle workers
// never crack the same column — and hence never the same piece — at once,
// and never queue up behind one column's latch while other columns starve.
type shard struct {
	col    Column
	merger Merger                        // non-nil when col also buffers updates
	busy   atomic.Bool                   // claimed by an in-flight Step
	ix     atomic.Pointer[cracker.Index] // cached once materialised
}

// index returns the shard's cracker index, materialising it under the
// column's exclusive latch on first use.
func (sh *shard) index() *cracker.Index {
	if ix := sh.ix.Load(); ix != nil {
		return ix
	}
	sh.col.Lock()
	ix := sh.col.CrackIndex()
	sh.col.Unlock()
	sh.ix.Store(ix)
	return ix
}

// Tuner is the holistic tuning engine. All methods are safe for concurrent
// use; Step in particular may be driven by many idle workers at once.
type Tuner struct {
	model     costmodel.Params
	collector *stats.Collector

	mu        sync.Mutex
	shards    []*shard
	aux       []*auxShard // registered maintenance actions (see aux.go)
	rng       *rand.Rand
	rr        int   // round-robin rotation cursor for rank ties
	actions   int64 // refinement actions performed
	work      int64 // elements touched by those actions
	contended int64 // Steps that yielded because every candidate was claimed
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
	sh := &shard{col: c}
	if m, ok := c.(Merger); ok {
		sh.merger = m
	}
	t.shards = append(t.shards, sh)
	t.collector.Register(c.Name(), domLo, domHi)
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

// Contended returns how many Steps yielded without cracking because every
// refinable column was already claimed by another worker — a diagnostic for
// sizing the idle worker pool against the number of active columns.
func (t *Tuner) Contended() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.contended
}

// bid scores the one action a shard offers the idle auction. A shard has up
// to two: drain its update backlog (ranked even at zero frequency — reads pay
// for the backlog whether or not the tuner has seen queries) and crack; it
// bids the better one. The crack score is frequency-weighted, so an
// unqueried, unseeded column never ranks. Scoring only reads: a column with no
// cracked copy yet bids as one piece of its live rows, and the step that wins
// materialises it. Scoring takes the index latch, which a worker that has
// claimed the shard may hold for a whole crack.
func (t *Tuner) bid(sh *shard) (score float64, merge bool) {
	freq := t.collector.Frequency(sh.col.Name())
	if sh.merger != nil {
		if pending := sh.merger.PendingOps(); pending > 0 {
			score, merge = t.model.MergeScore(freq, pending), true
		}
	}
	if freq > 0 {
		if pieces, n := sh.col.PieceStats(); pieces > 0 {
			if cs := t.model.Score(freq, float64(n)/float64(pieces)); cs > score {
				score, merge = cs, false
			}
		}
	}
	return score, merge
}

func (t *Tuner) snapshotShards() []*shard {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*shard(nil), t.shards...)
}

// StepResult classifies one TryStep attempt.
type StepResult int

const (
	// StepWorked: a refinement action ran (its work may still be 0 if the
	// random pivot hit an existing boundary).
	StepWorked StepResult = iota
	// StepContended: every refinable column was claimed by another worker;
	// nothing ran and nothing was counted. The caller should yield.
	StepContended
	// StepExhausted: no column has refinement potential left.
	StepExhausted
)

// TryStep attempts one idle refinement action on the best-ranked unclaimed
// column, returning the work done (elements touched) and what happened.
// Only StepWorked counts toward Actions(); a contended attempt is tallied
// in Contended() instead, so "X refinement actions" keeps the paper's
// meaning under a multi-worker pool.
//
// TryStep is safe — and useful — to call from many goroutines: each caller
// claims a column shard with an atomic flag before cracking, so concurrent
// workers fan out across columns instead of serialising on one latch, and
// the crack itself runs under the column's shared latch, taking the cracker
// index's own latch exclusively only while it partitions.
func (t *Tuner) TryStep() (work int, res StepResult) {
	shards := t.snapshotShards()
	aux := t.snapshotAux()
	if len(shards) == 0 && len(aux) == 0 {
		return 0, StepExhausted
	}
	t.mu.Lock()
	rr := t.rr
	t.rr++
	t.mu.Unlock()

	// Linear best-unclaimed scan (no sort, no allocation on the hot idle
	// path). Ties keep the first candidate in rr-rotated order, the same
	// round-robin the paper's "No Knowledge" case needs. If the claim race
	// is lost, rescan: the raced shard is busy now, so the next-best wins.
	n := len(shards)
	for attempt := 0; attempt < n+len(aux); attempt++ {
		var best *shard
		bestScore := 0.0
		bestMerge := false
		refinable := false
		for i := 0; i < n; i++ {
			sh := shards[(rr+i)%n]
			if sh.busy.Load() {
				// Another worker owns this column's action queue, so it was
				// refinable a moment ago. Do not score it (see bid).
				refinable = true
				continue
			}
			s, merge := t.bid(sh)
			if s <= 0 {
				continue
			}
			refinable = true
			if s > bestScore {
				best, bestScore, bestMerge = sh, s, merge
			}
		}
		// Aux maintenance actions (checkpoints) bid in the same auction:
		// the best one competes with the best column action and the higher
		// score wins the claim.
		var bestAux *auxShard
		for _, a := range aux {
			s := a.act.Score()
			if s <= 0 {
				continue
			}
			refinable = true
			if a.busy.Load() {
				continue
			}
			if s > bestScore {
				best, bestScore, bestAux = nil, s, a
			}
		}
		if best == nil && bestAux == nil {
			if !refinable {
				return 0, StepExhausted
			}
			// Every refinable column is claimed right now. Yield instead of
			// queueing behind a latch.
			t.mu.Lock()
			t.contended++
			t.mu.Unlock()
			return 0, StepContended
		}
		if bestAux != nil {
			if !bestAux.busy.CompareAndSwap(false, true) {
				continue // lost the claim race; rescan for the next best
			}
			w := bestAux.act.Run()
			bestAux.busy.Store(false)
			t.mu.Lock()
			t.actions++
			t.work += int64(w)
			t.auxRuns++
			t.mu.Unlock()
			return w, StepWorked
		}
		if !best.busy.CompareAndSwap(false, true) {
			continue // lost the claim race; rescan for the next best
		}
		var w int
		if bestMerge {
			w = best.merger.MergeStep(DefaultMergeQuantum)
		} else {
			w = t.crackShard(best)
		}
		best.busy.Store(false)
		t.mu.Lock()
		t.actions++
		t.work += int64(w)
		if bestMerge {
			t.merges++
			t.mergedOps += int64(w)
		}
		t.mu.Unlock()
		return w, StepWorked
	}
	t.mu.Lock()
	t.contended++
	t.mu.Unlock()
	return 0, StepContended
}

// crackShard performs one random refinement on a claimed shard under the
// column's shared latch.
func (t *Tuner) crackShard(sh *shard) int {
	rng := t.childRNG()
	ix := sh.index()
	sh.col.RLock()
	defer sh.col.RUnlock()
	w := 0
	for attempt := 0; attempt < DefaultCrackRetries; attempt++ {
		if w = ix.RandomCrackDomain(rng); w > 0 {
			break
		}
	}
	if w == 0 {
		// Domain pivots keep hitting existing boundaries; force progress on
		// the largest piece instead.
		w = ix.RandomCrackLargest(rng)
	}
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
		w, res := t.TryStep()
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
// claim slots of the shared budget atomically and fan out across column
// shards via TryStep. A worker that gives up under contention (more workers
// than refinable shards) forfeits the slot it claimed; once the pool has
// drained and holds no shard, the forfeited slots run serially, so the
// window performs exactly n actions unless the columns converge first.
// workers <= 1 degrades to the serial RunActions.
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
				w, res := t.TryStep()
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
