// Package stats is the kernel's one workload sketch: continuous monitoring
// of which columns queries hit, the statistical substrate holistic indexing
// shares with online indexing (Table 1 of the paper: "statistical analysis
// during workload execution"). A Collector keeps, per column, a query count
// and a decayed query mass, fed from one write path.
//
// The mass decays per noted query, so a shifting workload ages out stale
// knowledge: Frequency, the decayed share of recent queries touching a
// column, weights the ranking scheme's "which column next?" decision.
package stats

import (
	"math"
	"sync"
)

const (
	// Decay is the per-query multiplicative decay applied to a column's
	// frequency mass. 0.999 halves a query's weight roughly every 700
	// queries.
	Decay = 0.999
	// maxWeight caps RecordWeighted's weight so a hostile seed weight
	// cannot push a column's decayed mass to +Inf (which would turn every
	// Frequency into NaN).
	maxWeight = 1e12
)

// columnStats is the per-column sketch. All access goes through Collector's
// lock.
type columnStats struct {
	queries uint64  // noted queries (never decayed, weight-independent)
	decayed float64 // decayed query mass
	lastSeq uint64  // collector sequence at last touch (for lazy decay)
}

func (cs *columnStats) catchUp(seq uint64) {
	if cs.lastSeq == seq {
		return
	}
	f := Decay
	if d := seq - cs.lastSeq; d > 1 {
		f = math.Pow(Decay, float64(d))
	}
	cs.decayed *= f
	cs.lastSeq = seq
}

// Collector aggregates workload statistics across columns. It is safe for
// concurrent use.
type Collector struct {
	mu   sync.Mutex
	cols map[string]*columnStats
	seq  uint64 // noted queries across all columns: the decay clock
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{cols: map[string]*columnStats{}}
}

// Register introduces a column. Registering an already known column resets
// its sketch.
func (c *Collector) Register(col string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cols[col] = &columnStats{lastSeq: c.seq}
}

// RecordQuery notes one query against a column. Queries against
// unregistered columns are ignored (the caller registers on table creation).
func (c *Collector) RecordQuery(col string) {
	c.RecordWeighted(col, 1)
}

// RecordWeighted notes a query with mass weight w (e.g. a seeded workload
// hint). The weight scales the column's frequency mass, but the observation
// is still ONE query on the decay clock: weight is mass, not arrivals.
// Non-positive (and NaN) weights are ignored.
func (c *Collector) RecordWeighted(col string, w float64) {
	if !(w > 0) {
		return
	}
	w = min(w, maxWeight)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	cs, ok := c.cols[col]
	if !ok {
		return
	}
	cs.catchUp(c.seq)
	cs.queries++
	cs.decayed += w
}

// Queries returns how many queries were noted for a column (undecayed; a
// weighted observation counts once).
func (c *Collector) Queries(col string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cs, ok := c.cols[col]; ok {
		return cs.queries
	}
	return 0
}

// Frequency returns the column's decayed query mass normalised by the total
// across all registered columns — a value in [0, 1] once any query has been
// seen. With no recorded queries at all it returns equal shares, the
// "no workload knowledge" prior that makes the tuner spread actions round-
// robin across the catalog.
func (c *Collector) Frequency(col string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, ok := c.cols[col]
	if !ok {
		return 0
	}
	total := 0.0
	for _, other := range c.cols {
		other.catchUp(c.seq)
		total += other.decayed
	}
	if total < 1e-9 {
		return 1 / float64(len(c.cols))
	}
	return cs.decayed / total
}
