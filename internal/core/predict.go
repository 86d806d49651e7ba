// Speculative pre-cracking: the predictive extension of the holistic tuner.
// The reactive loop in tuner.go refines where queries *were*; this file
// spends left-over idle capacity where the workload sketch's drift model
// (stats.Collector.Predict) says they are *going*, so the first query after
// a traffic gap finds its range already cracked.
//
// Discipline, in order of priority:
//
//  1. Real work first. TrySpeculativeStep refuses to run while any column
//     still has a positive crack/merge/aux score — speculation only spends
//     idle slots that reactive refinement has no use for.
//  2. Confidence-scaled bids. Predicted ranges are ranked by
//     costmodel.PredictScore, which multiplies the payoff by the
//     sketch's confidence; below the sketch's own confidence floor
//     no prediction is emitted at all, so an adversarial (teleporting)
//     workload shuts speculation off by itself.
//  3. Budget-capped. The idle runner charges every speculative attempt
//     against a per-traffic-gap budget (idle.DefaultSpecBudget), so a wrong
//     forecast burns a bounded slice of one gap's idle capacity and nothing
//     else.
//  4. Never against traffic. Speculative steps execute inside the same
//     zero-in-flight claim/token scope as real idle steps; the load-gate
//     rendezvous guarantee applies verbatim.
//
// A speculative action refines the predicted range *finer* than the global
// cache-resident target (costmodel.SpecTarget): by the time speculation is
// reachable the column-wide average already meets the global target, and
// what the next burst buys from pre-cracking is near-sorted pieces exactly
// where it will land.
package core

import "holistic/internal/stats"

// DefaultSpecCracks bounds the random cracks one speculative action applies
// inside its predicted range, keeping a speculative step in the same
// bounded-latency class as a real refinement action.
const DefaultSpecCracks = 8

// specWinWindow is how many recent speculative ranges the tuner remembers
// per column for win accounting: a later query overlapping a remembered
// range counts as one speculation win and retires the entry.
const specWinWindow = 16

// SpecActions returns how many speculative pre-crack actions ran. They are
// deliberately not part of Actions(): "X refinement actions" keeps its
// reactive meaning in the paper's experiments.
func (t *Tuner) SpecActions() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.specActions
}

// SpecWork returns the elements touched by speculative pre-crack actions.
func (t *Tuner) SpecWork() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.specWork
}

// SpecWins returns how many speculated ranges were subsequently hit by a
// real query — the forecast's realised value.
func (t *Tuner) SpecWins() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.specWins
}

// realWorkPending reports whether any reactive action — crack, merge or aux
// — still has a positive score. It asks each shard for TryStep's bid without
// claiming anything; "claimed by another worker" still counts as pending,
// so speculation stays strictly behind real work even under contention.
func (t *Tuner) realWorkPending(shards []*shard) bool {
	for _, sh := range shards {
		if s, _ := t.bid(sh); s > 0 {
			return true
		}
	}
	for _, a := range t.snapshotAux() {
		if a.act.Score() > 0 {
			return true
		}
	}
	return false
}

// TrySpeculativeStep attempts one forecast-driven pre-crack action on the
// best-scoring predicted range, with the same claim discipline and result
// classification as TryStep. It returns StepExhausted when real work is
// still pending (real refinement owns the idle slot), no prediction clears
// the confidence floor, or every predicted range is already pre-cracked to
// the speculative target.
func (t *Tuner) TrySpeculativeStep() (work int, res StepResult) {
	shards := t.snapshotShards()
	if len(shards) == 0 {
		return 0, StepExhausted
	}
	if t.realWorkPending(shards) {
		return 0, StepExhausted
	}
	var (
		best      *shard
		bestRange stats.Range
		bestScore float64
		claimable bool
	)
	for _, sh := range shards {
		preds := t.collector.Predict(sh.col.Name())
		if len(preds) == 0 {
			continue
		}
		freq := t.collector.Frequency(sh.col.Name())
		for _, pr := range preds {
			avg := sh.col.RangePieceAvg(pr.Range.Lo, pr.Range.Hi)
			s := t.model.PredictScore(pr.Confidence, freq, avg)
			if s <= 0 {
				continue // already fine enough, or no confidence
			}
			claimable = true
			if sh.busy.Load() {
				continue // another worker owns this column's action queue
			}
			if s > bestScore {
				best, bestRange, bestScore = sh, pr.Range, s
			}
		}
	}
	if best == nil {
		if !claimable {
			return 0, StepExhausted
		}
		t.mu.Lock()
		t.contended++
		t.mu.Unlock()
		return 0, StepContended
	}
	if !best.busy.CompareAndSwap(false, true) {
		t.mu.Lock()
		t.contended++
		t.mu.Unlock()
		return 0, StepContended
	}
	w := t.preCrackRange(best, bestRange)
	best.busy.Store(false)
	t.mu.Lock()
	t.specActions++
	t.specWork += int64(w)
	t.recordSpecRangeLocked(best.col.Name(), bestRange)
	t.mu.Unlock()
	return w, StepWorked
}

// preCrackRange refines one predicted range on a claimed shard: pin the
// range's boundaries (so the burst's first query needs no partitioning at
// the edges), then random cracks inside until the range's pieces reach the
// speculative target or the per-action crack bound runs out. Runs under the
// column's shared latch, like every refinement.
func (t *Tuner) preCrackRange(sh *shard, r stats.Range) int {
	rng := t.childRNG()
	ix := sh.index()
	specTarget := t.model.SpecTarget()
	sh.col.RLock()
	defer sh.col.RUnlock()
	w := 0
	pw, _ := ix.CrackAt(r.Lo)
	w += pw
	pw, _ = ix.CrackAt(r.Hi)
	w += pw
	for i := 0; i < DefaultSpecCracks; i++ {
		if ix.RangePieceAvg(r.Lo, r.Hi) <= specTarget {
			break
		}
		w += ix.RandomCrackInRange(rng, r.Lo, r.Hi, int(specTarget))
	}
	return w
}

// recordSpecRangeLocked remembers a speculated range for win accounting,
// bounded to the most recent specWinWindow entries per column. Caller holds
// t.mu.
func (t *Tuner) recordSpecRangeLocked(col string, r stats.Range) {
	if t.specRanges == nil {
		t.specRanges = map[string][]stats.Range{}
	}
	q := append(t.specRanges[col], r)
	if len(q) > specWinWindow {
		q = q[len(q)-specWinWindow:]
	}
	t.specRanges[col] = q
}

// noteSpecWin counts a query overlapping a remembered speculated range as
// one win and retires the entry, so each pre-crack is credited at most once.
func (t *Tuner) noteSpecWin(col string, lo, hi int64) {
	if lo >= hi {
		return
	}
	q := stats.Range{Lo: lo, Hi: hi}
	t.mu.Lock()
	defer t.mu.Unlock()
	rs := t.specRanges[col]
	for i, r := range rs {
		if r.Overlaps(q) {
			t.specWins++
			t.specRanges[col] = append(rs[:i:i], rs[i+1:]...)
			return
		}
	}
}

// PredictedRange is one forecast range as surfaced to operators.
type PredictedRange struct {
	Lo         int64   `json:"lo"`
	Hi         int64   `json:"hi"`
	Confidence float64 `json:"confidence"`
}

// ColumnForecast is one column's current forecast as surfaced to operators
// (holisticctl stats, the server's stats response).
type ColumnForecast struct {
	Column     string           `json:"column"`
	Confidence float64          `json:"confidence"`
	Epochs     int              `json:"epochs"`
	Ranges     []PredictedRange `json:"ranges,omitempty"`
}

// ForecastSummary snapshots every registered column's forecast. Columns
// whose model has not closed an epoch yet are included with zero confidence
// so an operator can see the forecaster warming up.
func (t *Tuner) ForecastSummary() []ColumnForecast {
	shards := t.snapshotShards()
	out := make([]ColumnForecast, 0, len(shards))
	for _, sh := range shards {
		name := sh.col.Name()
		cf := ColumnForecast{
			Column:     name,
			Confidence: t.collector.Confidence(name),
			Epochs:     t.collector.Epochs(name),
		}
		for _, p := range t.collector.Predict(name) {
			cf.Ranges = append(cf.Ranges, PredictedRange{
				Lo:         p.Range.Lo,
				Hi:         p.Range.Hi,
				Confidence: p.Confidence,
			})
		}
		out = append(out, cf)
	}
	return out
}
