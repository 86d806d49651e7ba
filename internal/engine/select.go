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
// multiple cores even with no other query in the system. Within each shard,
// selects on the same part run in parallel wherever the physical design
// allows it: scan/offline/online selects are pure reads under the part's
// shared latch, and adaptive/holistic selects run under it too, taking the
// part's cracker index latch shared to look up and sum an already-cracked
// range (one acquisition each, whatever the piece count) and exclusively
// only while partitioning a piece; only materialising the cracked copy,
// merging pending updates and stochastic-variant selects fall back to the
// part's exclusive latch.
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
		count, sum = cs.sc.FanOutCountSum(func(p *shard.Part) (int, int64) {
			return p.CrackedSelect(lo, hi)
		})

	case StrategyHolistic:
		count, sum = cs.sc.FanOutCountSum(func(p *shard.Part) (int, int64) {
			return p.CrackedSelect(lo, hi)
		})
		// Continuous monitoring plus the "No Time" opportunity, per shard: a
		// hot range earns a few extra cracks inside the query (cheap — hot
		// pieces are already small), and none once the range's pieces have
		// reached the target piece size.
		for _, p := range cs.sc.Parts() {
			e.tuner.NoteQuery(p.Name(), lo, hi)
			p.RLock()
			if ix := p.Cracked(); ix != nil {
				e.tuner.MaybeBoost(ix, p.Name(), lo, hi)
			}
			p.RUnlock()
		}
	}
	return Result{Count: count, Sum: sum, Elapsed: time.Since(start)}, nil
}
