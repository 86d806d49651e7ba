package engine

import (
	"sync"

	"holistic/internal/costmodel"
	"holistic/internal/shard"
)

// The online strategy's review is COLT-style continuous monitoring
// (Schnaitter et al., SIGMOD 2006) with monolithic full-index builds. Every
// reviewEpoch selects it reads each column's live size and design from the
// catalog, builds a full index on each column whose epoch load pays for one
// (costmodel.BuildPays), and drops an index no select read for
// dropAfterReviews reviews in a row. The builds run inside the select that
// closed the epoch: "queries that happen to arrive during the tuning period
// face a significant penalty".
const (
	// reviewEpoch is the number of selects between reviews.
	reviewEpoch = 100
	// dropAfterReviews is how many consecutive reviews must find a full
	// index unread before it is dropped.
	dropAfterReviews = 20
)

// load is one column's selects in an epoch.
type load struct {
	queries int
	sel     float64 // summed selectivity
}

// onlineReview is the review's state. mu guards the epoch's counts and is
// held only to count or take them, never across a part latch, a build or a
// drop. reviewMu, taken only by reviewers, serialises reviews and guards the
// idle counts.
type onlineReview struct {
	mu      sync.Mutex
	selects int
	epoch   map[*shard.Column]load

	reviewMu sync.Mutex
	idle     map[*shard.Column]int // consecutive reviews that found the index unread
}

func newOnlineReview() *onlineReview {
	return &onlineReview{epoch: map[*shard.Column]load{}, idle: map[*shard.Column]int{}}
}

// note counts one select on sc of selectivity sel. When that select closes
// the epoch it returns the epoch's counts, taken and reset in the same
// critical section, so each epoch is reviewed exactly once.
func (o *onlineReview) note(sc *shard.Column, sel float64) map[*shard.Column]load {
	o.mu.Lock()
	defer o.mu.Unlock()
	l := o.epoch[sc]
	o.epoch[sc] = load{l.queries + 1, l.sel + sel}
	if o.selects++; o.selects < reviewEpoch {
		return nil
	}
	return o.takeLocked()
}

// take ends the epoch early and returns its counts, for a forced review.
func (o *onlineReview) take() map[*shard.Column]load {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.takeLocked()
}

func (o *onlineReview) takeLocked() map[*shard.Column]load {
	ep := o.epoch
	o.epoch, o.selects = map[*shard.Column]load{}, 0
	return ep
}

// observe counts a select on sc that returned count rows and, when it closed
// the epoch, reviews the design inside it.
func (e *Engine) observe(sc *shard.Column, count int) {
	sel := 0.0
	if n := sc.Live(); n > 0 {
		sel = float64(count) / float64(n)
	}
	if ep := e.online.note(sc, sel); ep != nil {
		e.review(ep)
	}
}

// review applies one epoch's counts to every column in the catalog and
// returns how many indexes it built or dropped. The caller holds no part
// latch: a build or a drop latches the column's parts.
func (e *Engine) review(ep map[*shard.Column]load) (changed int) {
	o := e.online
	o.reviewMu.Lock()
	defer o.reviewMu.Unlock()
	for _, t := range e.tableList() {
		for _, sc := range t.cat.Load().cols {
			l := ep[sc]
			switch {
			case !sc.HasSorted():
				delete(o.idle, sc)
				if l.queries > 0 && costmodel.BuildPays(sc.Live(), l.queries, l.sel/float64(l.queries)) {
					sc.BuildSorted()
					changed++
				}
			case l.queries > 0:
				delete(o.idle, sc)
			case o.idle[sc]+1 < dropAfterReviews:
				o.idle[sc]++
			default:
				delete(o.idle, sc)
				sc.DropSorted()
				changed++
			}
		}
	}
	return changed
}
