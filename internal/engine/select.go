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
// Concurrency: every strategy answers part by part and merges the partial
// (count, sum), and one rule decides where the parts run (shard.Column.CountSum,
// costmodel.FanOutMinWork). Each part is first probed on the caller's
// goroutine: a scan estimates its rows, a sorted lookup nothing, an adaptive
// or holistic select gets from shard.Part.ConvergedSelect either the answer —
// both bounds already are crack boundaries — or the size of the pieces a
// crack would partition. Only when the estimates the other parts would take
// off the caller's path reach the threshold does the select start a goroutine
// per part: a large select (a scan, a first touch) runs on several cores even
// with no other query in the system, a small crack, like a converged lookup,
// runs where the query is. Within a shard, selects run in parallel wherever
// the physical design allows: scan/offline/online selects are pure reads
// under the part's shared latch, and adaptive/holistic selects run under it
// too, taking the cracker index latch shared to subtract two boundary sums
// and exclusively only while partitioning a piece; only materialising the
// cracked copy and merging pending updates take the part's exclusive latch.
func (e *Engine) Select(table, col string, lo, hi int64) (Result, error) {
	cs, err := e.colState(table, col)
	if err != nil {
		return Result{}, err
	}
	if e.runner != nil {
		g := e.runner.Gate()
		g.Hold()
		defer g.Release()
	}
	start := time.Now()
	var count int
	var sum int64
	switch e.cfg.Strategy {
	case StrategyScan:
		count, sum, _, _ = cs.sc.CountSum(lo, hi, (*shard.Part).ScanWork, (*shard.Part).ScanCountSum)

	case StrategyOffline:
		count, sum, _, _ = cs.sc.CountSum(lo, hi, (*shard.Part).SortedWork, (*shard.Part).SortedCountSum)

	case StrategyOnline:
		count, sum, _, _ = cs.sc.CountSum(lo, hi, (*shard.Part).SortedWork, (*shard.Part).SortedCountSum)
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
		count, sum, _, _ = cs.sc.CountSum(lo, hi, (*shard.Part).ConvergedSelect, (*shard.Part).CrackedSelect)

	case StrategyHolistic:
		c, s, region, inline := cs.sc.CountSum(lo, hi, (*shard.Part).ConvergedSelect, (*shard.Part).CrackedSelect)
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
