// Package harness runs the paper's experiments end to end: it generates the
// data and query workloads, runs every indexing strategy through the same
// query pass, records per-query response times, verifies that every strategy
// returns identical results, and renders the series as paper-style
// cumulative curves (ASCII/CSV) and tables.
//
// One driver serves every experiment: newEngine loads the columns under a
// strategy and pass answers the query sequence, opening the experiment's
// idle windows between queries. What a strategy may do with idle time is its
// row of the paper's Table 1 (engine.Capabilities), the row Timeline draws
// Figure 1 from: a-priori idle time buys incremental refinement or a full
// index build, and only a strategy that exploits idle time during the
// workload gets the windows.
//
// Accounting follows the paper exactly: "idle time" is the measured wall
// time of refinement work executed outside any query's critical path; query-
// visible time is everything a query had to wait for, including the
// remainder of an offline index build that idle time did not cover.
package harness

import (
	"fmt"
	"slices"
	"time"

	"holistic/internal/engine"
	"holistic/internal/workload"
)

// Series is one strategy's per-query timing trace.
type Series struct {
	Name     string
	PerQuery []time.Duration
}

// Cumulative returns the running sum of per-query times — the y-axis of the
// paper's figures.
func (s *Series) Cumulative() []time.Duration {
	out := make([]time.Duration, len(s.PerQuery))
	var sum time.Duration
	for i, d := range s.PerQuery {
		sum += d
		out[i] = sum
	}
	return out
}

// Total returns the query-visible total time (the last cumulative point).
func (s *Series) Total() time.Duration {
	var sum time.Duration
	for _, d := range s.PerQuery {
		sum += d
	}
	return sum
}

// checksum pairs the count and sum a query returned, for cross-strategy
// verification.
type checksum struct {
	count int
	sum   int64
}

// verifyAgainst compares two strategies' checksums query by query.
func verifyAgainst(expected []checksum, got []checksum, name string) error {
	if len(expected) != len(got) {
		return fmt.Errorf("harness: %s answered %d queries, want %d", name, len(got), len(expected))
	}
	for i := range expected {
		if expected[i] != got[i] {
			return fmt.Errorf("harness: %s diverged on query %d: %+v != %+v", name, i, got[i], expected[i])
		}
	}
	return nil
}

// column is one column of an experiment's table R.
type column struct {
	name string
	vals []int64
}

// newEngine builds an engine under strategy whose table R holds a private
// copy of every column.
func newEngine(strategy engine.Strategy, seed uint64, target, workers int, cols []column) (*engine.Engine, error) {
	e := engine.New(engine.Config{
		Strategy:        strategy,
		Seed:            seed,
		TargetPieceSize: target,
		IdleWorkers:     workers,
	})
	tab, err := e.CreateTable("R")
	for _, c := range cols {
		if err != nil {
			break
		}
		err = tab.AddColumnFromSlice(c.name, slices.Clone(c.vals))
	}
	if err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// pass answers queries on e in order and returns the series, named name,
// the answers and the time its idle windows took. Before query i it opens
// an idle window of x actions when x > 0, i > 0 and i%idleEvery == 0; query
// 1 also waits firstWait.
func pass(e *engine.Engine, name string, queries []workload.Query, idleEvery, x int, firstWait time.Duration) (Series, []checksum, time.Duration, error) {
	s := Series{Name: name, PerQuery: make([]time.Duration, len(queries))}
	sums := make([]checksum, len(queries))
	var idle time.Duration
	wait := firstWait
	for i, q := range queries {
		if x > 0 && i > 0 && i%idleEvery == 0 {
			t0 := time.Now()
			e.IdleActions(x)
			idle += time.Since(t0)
		}
		r, err := e.Select(q.Table, q.Column, q.Lo, q.Hi)
		if err != nil {
			return Series{}, nil, 0, err
		}
		s.PerQuery[i], wait = r.Elapsed+wait, 0
		sums[i] = checksum{r.Count, r.Sum}
	}
	return s, sums, idle, nil
}
