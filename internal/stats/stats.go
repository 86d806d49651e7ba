// Package stats is the kernel's one workload sketch: continuous monitoring
// of where queries land, the statistical substrate holistic indexing shares
// with online indexing (Table 1 of the paper: "statistical analysis during
// workload execution"). A Collector keeps, per column, a decayed query mass
// and one equi-width bucket geometry over the column's value domain, fed from
// one write path; everything the tuner asks is a read-only view over that
// state.
//
// Which columns queries hit (always on), decayed per noted query so a
// shifting workload ages out stale knowledge: Frequency, the decayed share of
// recent queries touching a column, weights the ranking scheme's "which
// column next?" decision.
//
// Where they will be next (after TrackDrift; the shape follows Predictive
// Indexing, Arulraj et al., and Learned Adaptive Indexing, Das & Ray — see
// PAPERS.md), a deliberately lightweight linear drift model over the same
// buckets:
//
//   - observations accumulate, undecayed, into the open epoch, which closes
//     every epochQueries queries of the column; epoch masses are normalised,
//     so only the *shape* of the workload matters (scaling every observation
//     weight by a constant leaves predictions unchanged — the metamorphic
//     property the tests pin);
//   - per-bucket trend is an EWMA of normalised-mass deltas between epochs,
//     sharpening predictions toward a moving range's leading edge;
//   - drift velocity is an EWMA of the hot-mass centroid's movement per
//     epoch (in bucket units), with an EWMA of its squared residuals as the
//     variance estimate. Confidence is 1/(1+variance): a stationary or
//     constant-drift stream converges to 1, while a range that teleports
//     unpredictably drives the variance up and the confidence toward 0, so
//     adversarial workloads suppress speculation on their own.
//
// Predict projects the last epoch's masses (plus trend) forward by the
// rounded velocity and returns the top-scoring buckets coalesced into value
// ranges, each carrying its share of the column's confidence. All bucket
// arithmetic is done in unsigned 64-bit offsets from the domain origin, so
// domains spanning the entire int64 range (the wrap class PR 7 fixed in the
// cracker) cannot overflow; predicted ranges are unions of whole buckets
// inside the registered domain (FuzzForecastObserve pins both properties).
package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

const (
	// Buckets is the number of equi-width buckets per column.
	Buckets = 64
	// Decay is the per-query multiplicative decay applied to a column's
	// frequency mass. 0.999 halves a query's weight roughly every 700
	// queries.
	Decay = 0.999
	// DefaultEpochQueries is how many noted queries close one drift epoch.
	DefaultEpochQueries = 32

	// trendAlpha is the EWMA weight of the newest mass delta.
	trendAlpha = 0.5
	// velocityAlpha is the EWMA weight of the newest centroid move.
	velocityAlpha = 0.5
	// trendGamma weights the trend term against the mass term when scoring
	// buckets.
	trendGamma = 1.0
	// topK is how many top-scoring buckets Predict considers before
	// coalescing adjacent ones into ranges.
	topK = 4
	// minConfidence is the confidence floor below which Predict returns
	// nothing: with no consistent drift evidence, speculating is worse than
	// staying reactive.
	minConfidence = 0.1
	// maxWeight caps RecordWeighted's weight so adversarial inputs cannot
	// push an epoch's mass sum to +Inf (which would poison the
	// normalisation with NaNs).
	maxWeight = 1e12
)

// Range is a half-open value interval [Lo, Hi).
type Range struct {
	Lo, Hi int64
}

// Contains reports whether v lies in the range.
func (r Range) Contains(v int64) bool { return v >= r.Lo && v < r.Hi }

// Overlaps reports whether two ranges intersect.
func (r Range) Overlaps(o Range) bool { return r.Lo < o.Hi && o.Lo < r.Hi }

// String renders the range for diagnostics.
func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// Prediction is one range expected to be hot next, with the sketch's
// confidence share in it.
type Prediction struct {
	Range      Range
	Confidence float64
}

// columnStats is the per-column sketch. All access goes through Collector's
// lock.
type columnStats struct {
	domain  Range
	width   uint64  // bucket width in value units (unsigned: full-domain safe)
	queries uint64  // noted queries (never decayed, weight-independent)
	decayed float64 // decayed query mass
	lastSeq uint64  // collector sequence at last touch (for lazy decay)

	// Drift model; fed only while the collector tracks drift.
	cur        [Buckets]float64 // the open epoch's accumulating masses
	curQueries int              // queries in the open epoch (weight-independent)
	mass       [Buckets]float64 // normalised masses at the last epoch close
	trend      [Buckets]float64 // EWMA of normalised-mass deltas per bucket
	epochs     int              // closed epochs that carried mass
	center     float64          // last epoch's mass centroid, in bucket units
	hasCenter  bool
	velocity   float64 // EWMA centroid drift per epoch (bucket units)
	velVar     float64 // EWMA of squared velocity residuals
	velSamples int
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

// bucketOf maps a value inside the domain to its bucket. The offset from the
// domain origin is computed in uint64: an int64 subtraction would wrap for
// domains wider than half the value space (e.g. a column holding both
// MinInt64 and MaxInt64), yielding a negative bucket index — the same wrap
// class PR 7 fixed in the cracker. The last bucket absorbs the remainder of
// a span that is not a multiple of the bucket count.
func (cs *columnStats) bucketOf(v int64) int {
	return int(min((uint64(v)-uint64(cs.domain.Lo))/cs.width, Buckets-1))
}

// bucketRange returns the value interval covered by bucket b, clamped to the
// domain. For domains narrower than the bucket count the trailing buckets
// collapse to empty ranges at the domain's top; they never accumulate mass.
func (cs *columnStats) bucketRange(b int) Range {
	span := uint64(cs.domain.Hi) - uint64(cs.domain.Lo)
	lo := min(uint64(b)*cs.width, span)
	hi := uint64(b+1) * cs.width
	if hi > span || b == Buckets-1 {
		hi = span
	}
	base := uint64(cs.domain.Lo)
	return Range{Lo: int64(base + lo), Hi: int64(base + hi)}
}

// bucketSpan resolves the buckets [b0, b1] a query [lo, hi) overlaps. ok is
// false for an empty query and for one lying entirely outside the domain:
// neither says anything about where in the domain the workload is.
func (cs *columnStats) bucketSpan(lo, hi int64) (b0, b1 int, ok bool) {
	if lo >= hi || hi <= cs.domain.Lo || lo >= cs.domain.Hi {
		return 0, 0, false
	}
	return cs.bucketOf(max(lo, cs.domain.Lo)), cs.bucketOf(min(hi-1, cs.domain.Hi-1)), true
}

// Collector aggregates workload statistics across columns. It is safe for
// concurrent use.
type Collector struct {
	mu    sync.Mutex
	cols  map[string]*columnStats
	seq   uint64 // noted queries across all columns: the decay clock
	epoch int    // drift epoch length in queries; 0 = drift tracking off
}

// NewCollector returns an empty collector with drift tracking off.
func NewCollector() *Collector {
	return &Collector{cols: map[string]*columnStats{}}
}

// TrackDrift turns the drift model on with the given epoch length in noted
// queries per column (<= 0 selects DefaultEpochQueries). Until it is called
// no epoch ever closes, so Confidence is 0 and Predict returns nothing.
func (c *Collector) TrackDrift(epochQueries int) {
	if epochQueries <= 0 {
		epochQueries = DefaultEpochQueries
	}
	c.mu.Lock()
	c.epoch = epochQueries
	c.mu.Unlock()
}

// Register introduces a column with its value domain [domLo, domHi).
// Registering an already known column resets its sketch (the domain may have
// changed).
func (c *Collector) Register(col string, domLo, domHi int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if domHi <= domLo {
		if domLo == math.MaxInt64 {
			domLo-- // domLo+1 would wrap
		}
		domHi = domLo + 1
	}
	// Bucket width in unsigned offset units so a domain spanning more than
	// half the int64 space (uint64(domHi)-uint64(domLo) wraps correctly)
	// cannot produce a negative width.
	width := max((uint64(domHi)-uint64(domLo))/Buckets, 1)
	c.cols[col] = &columnStats{
		domain:  Range{Lo: domLo, Hi: domHi},
		width:   width,
		lastSeq: c.seq,
	}
}

// RecordQuery notes a range query [lo, hi) against a column. Queries against
// unregistered columns are ignored (the caller registers on table creation).
func (c *Collector) RecordQuery(col string, lo, hi int64) {
	c.RecordWeighted(col, lo, hi, 1)
}

// RecordWeighted notes a range query with mass weight w (e.g. a seeded
// workload hint). The weight scales frequency and bucket mass, but the
// observation is still ONE query on the decay clock and the epoch clock —
// weight is mass, not arrivals — so uniformly scaling every weight leaves
// all predictions unchanged. Non-positive (and NaN) weights are ignored. An
// empty range, or one entirely outside the domain, counts toward the
// column's frequency but adds no bucket mass and does not advance the epoch.
func (c *Collector) RecordWeighted(col string, lo, hi int64, w float64) {
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
	if c.epoch == 0 {
		return
	}
	b0, b1, ok := cs.bucketSpan(lo, hi)
	if !ok {
		return
	}
	for b := b0; b <= b1; b++ {
		cs.cur[b] += w
	}
	cs.curQueries++
	if cs.curQueries >= c.epoch {
		cs.closeEpoch()
	}
}

// closeEpoch folds the open epoch into the drift model: normalise, update
// per-bucket trend, move the centroid, update velocity and its variance.
func (cs *columnStats) closeEpoch() {
	total := 0.0
	for _, m := range cs.cur {
		total += m
	}
	cur := cs.cur
	cs.cur, cs.curQueries = [Buckets]float64{}, 0
	if !(total > 0) || math.IsInf(total, 0) {
		return // degenerate epoch: keep the previous model untouched
	}
	center := 0.0
	for b := range cur {
		nm := cur[b] / total
		if cs.epochs > 0 {
			cs.trend[b] += trendAlpha * (nm - cs.mass[b] - cs.trend[b])
		}
		cs.mass[b] = nm
		center += (float64(b) + 0.5) * nm
	}
	if cs.hasCenter {
		v := center - cs.center
		if cs.velSamples == 0 {
			cs.velocity, cs.velVar = v, 0
		} else {
			resid := v - cs.velocity
			cs.velocity += velocityAlpha * (v - cs.velocity)
			cs.velVar += velocityAlpha * (resid*resid - cs.velVar)
		}
		cs.velSamples++
	}
	cs.center, cs.hasCenter = center, true
	cs.epochs++
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

// confidence is 1/(1+velocityVariance): 1 for a stationary or constant-drift
// stream, near 0 for a teleporting one. Zero until two velocity samples
// exist (three closed epochs) — no evidence, no speculation.
func (cs *columnStats) confidence() float64 {
	if cs.velSamples < 2 {
		return 0
	}
	return 1 / (1 + cs.velVar)
}

// Confidence returns the column's current drift confidence in [0, 1].
func (c *Collector) Confidence(col string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cs, ok := c.cols[col]; ok {
		return cs.confidence()
	}
	return 0
}

// Epochs returns how many drift epochs the column's model has closed.
func (c *Collector) Epochs(col string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cs, ok := c.cols[col]; ok {
		return cs.epochs
	}
	return 0
}

// Predict returns the value ranges expected to be hot next, best first, each
// carrying its share of the column's confidence. It returns nil for unknown
// or not-yet-learned columns and whenever confidence is below the floor, so
// callers can treat "no prediction" and "don't speculate" the same way.
// Every returned range is a non-empty union of whole adjacent buckets inside
// the registered domain.
func (c *Collector) Predict(col string) []Prediction {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, ok := c.cols[col]
	if !ok || cs.epochs == 0 {
		return nil
	}
	conf := cs.confidence()
	if conf < minConfidence {
		return nil
	}
	shift := int(math.Round(cs.velocity))
	var score [Buckets]float64
	// Top-K buckets by (score desc, bucket asc) — deterministic.
	order := make([]int, 0, Buckets)
	for b := range score {
		src := b - shift
		if src < 0 || src >= Buckets {
			continue
		}
		if s := cs.mass[src] + trendGamma*cs.trend[src]; s > 0 {
			score[b] = s
			order = append(order, b)
		}
	}
	if len(order) == 0 {
		return nil
	}
	sort.Slice(order, func(i, j int) bool {
		bi, bj := order[i], order[j]
		if score[bi] != score[bj] {
			return score[bi] > score[bj]
		}
		return bi < bj
	})
	order = order[:min(len(order), topK)]
	total := 0.0
	for _, b := range order {
		total += score[b]
	}
	// Coalesce adjacent picked buckets into ranges; each range's confidence
	// is the column confidence weighted by its score share.
	sort.Ints(order)
	var out []Prediction
	for i := 0; i < len(order); {
		j := i
		mass := 0.0
		for j < len(order) && order[j] == order[i]+(j-i) {
			mass += score[order[j]]
			j++
		}
		lo := cs.bucketRange(order[i]).Lo
		hi := cs.bucketRange(order[j-1]).Hi
		if lo < hi {
			out = append(out, Prediction{
				Range:      Range{Lo: lo, Hi: hi},
				Confidence: conf * (mass / total),
			})
		}
		i = j
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		return out[i].Range.Lo < out[j].Range.Lo
	})
	return out
}
