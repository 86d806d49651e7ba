package engine

import "time"

// Select answers the paper's query template — SELECT col FROM table WHERE
// col >= lo AND col < hi — under the engine's strategy, returning the
// projection's count and sum plus the query-visible elapsed time. All index
// building, cracking and merging performed inside the query's
// critical path is included in Elapsed; idle-time work is not (it runs in
// IdleActions or the background worker pool).
//
// Every strategy runs the same kernel: the strategy's Table 1 row chose the
// mechanisms at New, and Select only asks which of them exist. Each part is
// first probed on the caller's goroutine (shard.Part.ProbeAt): it answers
// through the design it holds — an index that already has both bounds as
// boundaries, which a sorted one always has — or
// declines with the values answering would touch. The parts that declined are
// answered by the engine's run, a crack (shard.Part.CrackedSelectAt) with
// incremental indexing or a scan without. One rule decides where they run
// (shard.Column.CountSum, costmodel.FanOutMinWork): only when the work the
// other parts would take off the caller's path reaches the threshold does the
// select start a goroutine per part, so a large select (a scan, a first touch)
// runs on several cores even with no other query in the system, while a small
// crack, like a converged lookup, runs where the query is. Within a shard,
// every read holds the part's shared latch, and a crack takes the cracker
// index latch exclusively only while it partitions a piece; only materialising
// the cracked copy and merging pending updates take the part's exclusive
// latch. Every part is read at the table's visibility watermark, which the
// select loads once (Table.countSum), so it sees an insert batch in every
// part or in none.
//
// With the online review the select is then counted, and the select that
// closes an epoch runs the review, paying for any build it decides; with the
// holistic tuner it notes the query, which steers later idle refinement.
func (e *Engine) Select(table, col string, lo, hi int64) (Result, error) {
	t, err := e.Table(table)
	if err != nil {
		return Result{}, err
	}
	sc, err := t.column(col)
	if err != nil {
		return Result{}, err
	}
	if e.runner != nil {
		g := e.runner.Gate()
		g.Hold()
		defer g.Release()
	}
	start := time.Now()
	count, sum := t.countSum(sc, lo, hi, e.run)
	if e.online != nil {
		e.observe(sc, count)
	}
	if e.tuner != nil {
		// Continuous monitoring, per shard. The select itself does exactly an
		// adaptive select's cracks; refinement beyond its bounds is left to
		// idle time, which the noted query steers.
		for _, p := range sc.Parts() {
			e.tuner.NoteQuery(p.Name(), lo, hi)
		}
	}
	return Result{Count: count, Sum: sum, Elapsed: time.Since(start)}, nil
}
