package stats

import (
	"math"
	"testing"
)

// checkPredictions pins what every Predict answer must satisfy: confidence
// in [0, 1], and each range non-empty, inside the registered (normalised)
// domain and a union of whole hit-histogram buckets, so a predicted range and
// the hot ranges IsHot reads can never disagree about geometry. It returns
// how many predictions it checked.
func checkPredictions(t *testing.T, c *Collector, col string) int {
	t.Helper()
	preds := c.Predict(col)
	cs := c.cols[col]
	dom := cs.domain
	for _, p := range preds {
		if p.Range.Lo >= p.Range.Hi {
			t.Fatalf("empty predicted range %v", p.Range)
		}
		if p.Range.Lo < dom.Lo || p.Range.Hi > dom.Hi {
			t.Fatalf("prediction %v outside domain %v", p.Range, dom)
		}
		if p.Confidence < 0 || p.Confidence > 1 || math.IsNaN(p.Confidence) {
			t.Fatalf("confidence %g out of [0,1]", p.Confidence)
		}
		b0, b1 := cs.bucketOf(p.Range.Lo), cs.bucketOf(p.Range.Hi-1)
		if whole := (Range{cs.bucketRange(b0).Lo, cs.bucketRange(b1).Hi}); whole != p.Range {
			t.Fatalf("prediction %v is not the whole buckets %d..%d = %v", p.Range, b0, b1, whole)
		}
	}
	return len(preds)
}

// FuzzForecastObserve drives the histogram/trend update path with arbitrary
// domains and query ranges — including the MinInt64/MaxInt64 wrap class PR 7
// fixed in the cracker — and pins that the sketch never panics and that
// every prediction passes checkPredictions.
func FuzzForecastObserve(f *testing.F) {
	f.Add(int64(0), int64(6400), int64(100), int64(200), uint8(16))
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), int64(-10), int64(10), uint8(40))
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), int64(math.MinInt64), int64(math.MaxInt64), uint8(64))
	f.Add(int64(math.MaxInt64), int64(math.MinInt64), int64(math.MaxInt64-1), int64(math.MaxInt64), uint8(8))
	f.Add(int64(5), int64(5), int64(5), int64(6), uint8(32))
	f.Add(int64(-1), int64(1), int64(math.MinInt64), int64(0), uint8(12))
	f.Fuzz(func(t *testing.T, domLo, domHi, lo, hi int64, n uint8) {
		fc := newDrift(4)
		fc.Register("c", domLo, domHi)
		dom := fc.cols["c"].domain
		if dom.Lo >= dom.Hi {
			t.Fatalf("normalised domain %v is empty", dom)
		}
		steps := int(n%32) + 1
		for i := 0; i < steps; i++ {
			// Perturb the range each step; int64 overflow wraps (defined in
			// Go), which is exactly the hostile input class we want.
			d := int64(i) * (dom.Hi/int64(steps) - dom.Lo/int64(steps))
			fc.RecordQuery("c", lo+d, hi+d)
			fc.RecordWeighted("c", lo-d, hi-d, float64(i))
			checkPredictions(t, fc, "c")
		}
	})
}
