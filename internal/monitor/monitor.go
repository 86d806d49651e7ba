// Package monitor implements an online index advisor in the style of COLT
// (Schnaitter et al., SIGMOD 2006), the online-indexing substrate of the
// holistic kernel. The advisor watches the query stream and, at epoch
// boundaries (every 100 queries), performs what-if arithmetic with the cost
// model: if the observed load on an unindexed column would have been served
// cheaply enough by a full index to amortise the build within a horizon, it
// advises building one; full indexes that go unused for several epochs are
// advised dropped.
//
// This is the component whose weakness motivates holistic indexing: the
// build it advises is monolithic, so whichever query triggers it pays the
// whole sort ("queries that happen to arrive during the tuning period face
// a significant penalty").
package monitor

import (
	"sort"
	"sync"

	"holistic/internal/costmodel"
)

const (
	// epoch is the number of queries between physical design reviews.
	epoch = 100
	// horizonEpochs is how many future epochs a build must pay for itself
	// within: build when the expected benefit over the horizon covers the
	// build cost.
	horizonEpochs = 10
	// dropAfterEpochs drops a full index unused for this many consecutive
	// epochs.
	dropAfterEpochs = 20
)

// Advice is one physical design recommendation.
type Advice struct {
	Column string
	// Build requests a full sorted index on Column.
	Build bool
	// Drop requests removal of the full index on Column.
	Drop bool
	// Benefit is the estimated net benefit (cost-model units) behind the
	// advice, for logging and tests.
	Benefit float64
}

type colInfo struct {
	n            int // column length
	indexed      bool
	epochQueries int     // queries in the current epoch
	epochSel     float64 // accumulated selectivity in the current epoch
	idleEpochs   int     // consecutive epochs with zero queries (indexed cols)
}

// Advisor is the online index selection engine. It is safe for concurrent
// use.
type Advisor struct {
	mu       sync.Mutex
	cols     map[string]*colInfo
	sinceRev int // queries since last review
}

// New returns an advisor with no columns registered.
func New() *Advisor {
	return &Advisor{cols: map[string]*colInfo{}}
}

// Register introduces a column of n rows, initially unindexed.
func (a *Advisor) Register(col string, n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cols[col] = &colInfo{n: n}
}

// SetIndexed records the column's physical state (after the engine executes
// a build or drop).
func (a *Advisor) SetIndexed(col string, indexed bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if ci, ok := a.cols[col]; ok {
		ci.indexed = indexed
		ci.idleEpochs = 0
	}
}

// Observe notes one range query against a column with the given selectivity
// (qualifying fraction, in [0,1]). It returns advice — non-nil only when the
// query closed an epoch and the review found something to change.
func (a *Advisor) Observe(col string, selectivity float64) []Advice {
	a.mu.Lock()
	defer a.mu.Unlock()
	if ci, ok := a.cols[col]; ok {
		ci.epochQueries++
		if selectivity < 0 {
			selectivity = 0
		}
		if selectivity > 1 {
			selectivity = 1
		}
		ci.epochSel += selectivity
	}
	a.sinceRev++
	if a.sinceRev < epoch {
		return nil
	}
	a.sinceRev = 0
	return a.reviewLocked()
}

// reviewLocked runs the epoch-boundary what-if analysis.
func (a *Advisor) reviewLocked() []Advice {
	var out []Advice
	for name, ci := range a.cols {
		if ci.indexed {
			if ci.epochQueries == 0 {
				ci.idleEpochs++
				if ci.idleEpochs >= dropAfterEpochs {
					out = append(out, Advice{Column: name, Drop: true})
					ci.idleEpochs = 0
				}
			} else {
				ci.idleEpochs = 0
			}
		} else if ci.epochQueries > 0 && ci.n > 0 {
			avgSel := ci.epochSel / float64(ci.epochQueries)
			perQueryGain := costmodel.ScanCost(ci.n) - costmodel.IndexedSelectCost(ci.n, avgSel)
			if perQueryGain > 0 {
				expectedQueries := float64(ci.epochQueries * horizonEpochs)
				benefit := perQueryGain * expectedQueries
				buildCost := costmodel.SortCost(ci.n)
				if benefit >= buildCost {
					out = append(out, Advice{Column: name, Build: true, Benefit: benefit - buildCost})
				}
			}
		}
		ci.epochQueries = 0
		ci.epochSel = 0
	}
	// Deterministic order: strongest builds first, then drops, by name.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Build != out[j].Build {
			return out[i].Build
		}
		if out[i].Benefit != out[j].Benefit {
			return out[i].Benefit > out[j].Benefit
		}
		return out[i].Column < out[j].Column
	})
	return out
}

// ForceReview runs a review immediately regardless of epoch position. The
// idle scheduler can use it when a long idle window opens mid-epoch.
func (a *Advisor) ForceReview() []Advice {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sinceRev = 0
	return a.reviewLocked()
}
