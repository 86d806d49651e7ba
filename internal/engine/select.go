package engine

import (
	"time"

	"holistic/internal/shard"
)

// Select answers the paper's query template — SELECT col FROM table WHERE
// col >= lo AND col < hi — under the engine's strategy, returning the
// projection's count and sum plus the query-visible elapsed time. All index
// building, cracking, merging and boosting performed inside the query's
// critical path is included in Elapsed; idle-time work is not (it runs in
// IdleActions or the background worker pool).
//
// Concurrency: every strategy fans the select out across the column's
// shards — one goroutine per shard (shard.Column.FanOutCountSum) — and
// merges the partial (count, sum), so a single large select executes on
// multiple cores even with no other query in the system — except an adaptive
// or holistic select every part answers with a converged lookup, which runs
// on the caller's goroutine (see crackedSelect). Within each shard,
// selects on the same part run in parallel wherever the physical design
// allows it: scan/offline/online selects are pure reads under the part's
// shared latch, and adaptive/holistic selects run under it too, taking the
// part's cracker index latch shared to subtract the boundary sums of an
// already-cracked range (one acquisition, whatever the piece or value count)
// and exclusively only while partitioning a piece; only materialising the
// cracked copy, merging pending updates and stochastic-variant selects fall
// back to the part's exclusive latch.
func (e *Engine) Select(table, col string, lo, hi int64) (Result, error) {
	cs, err := e.colState(table, col)
	if err != nil {
		return Result{}, err
	}
	if e.runner != nil {
		e.runner.QueryBegin()
		defer e.runner.QueryEnd()
	}
	start := time.Now()
	var count int
	var sum int64
	switch e.cfg.Strategy {
	case StrategyScan:
		count, sum = cs.sc.FanOutCountSum(func(p *shard.Part) (int, int64) {
			return p.ScanCountSum(lo, hi)
		})

	case StrategyOffline:
		count, sum = cs.sc.FanOutCountSum(func(p *shard.Part) (int, int64) {
			return p.SortedCountSum(lo, hi)
		})

	case StrategyOnline:
		count, sum = cs.sc.FanOutCountSum(func(p *shard.Part) (int, int64) {
			return p.SortedCountSum(lo, hi)
		})
		sel := 0.0
		if n := cs.sc.Live(); n > 0 {
			sel = float64(count) / float64(n)
		}
		// Epoch-boundary reviews run here, and any advised build is
		// executed immediately: the triggering query pays the whole sort —
		// the online-indexing penalty the paper calls out.
		for _, adv := range e.advisor.Observe(cs.name, sel) {
			e.applyAdvice(adv)
		}

	case StrategyAdaptive:
		count, sum, _, _ = crackedSelect(cs.sc, lo, hi)

	case StrategyHolistic:
		c, s, region, inline := crackedSelect(cs.sc, lo, hi)
		count, sum = c, s
		// Continuous monitoring plus the "No Time" opportunity, per shard: a
		// hot range earns a few extra cracks inside the query (cheap — hot
		// pieces are already small), and none once the range's pieces have
		// reached the target piece size — which an inline answer knows
		// outright: no piece inside a region that small can be split.
		boost := !inline || region > e.tuner.TargetPieceSize()
		for _, p := range cs.sc.Parts() {
			e.tuner.NoteQuery(p.Name(), lo, hi)
			if !boost {
				continue
			}
			p.RLock()
			if ix := p.Cracked(); ix != nil {
				e.tuner.MaybeBoost(ix, p.Name(), lo, hi)
			}
			p.RUnlock()
		}
	}
	return Result{Count: count, Sum: sum, Elapsed: time.Since(start)}, nil
}

// crackedSelect answers an adaptive or holistic select. It first asks every
// part in turn, on the caller's goroutine, for a converged lookup
// (shard.Part.ConvergedSelect): a range whose bounds are crack boundaries is
// two tree descents and a subtraction at any width, far less than starting a
// worker for it. The first part that declines sends the whole statement down
// the fan-out; which path runs depends only on what the indexes hold for
// [lo, hi). inline reports the first path; region is then the most values any
// part's cracked copy holds for the range.
func crackedSelect(sc *shard.Column, lo, hi int64) (count int, sum int64, region int, inline bool) {
	for _, p := range sc.Parts() {
		c, s, r, ok := p.ConvergedSelect(lo, hi)
		if !ok {
			count, sum = sc.FanOutCountSum(func(p *shard.Part) (int, int64) {
				return p.CrackedSelect(lo, hi)
			})
			return count, sum, 0, false
		}
		count, sum, region = count+c, sum+s, max(region, r)
	}
	return count, sum, region, true
}
