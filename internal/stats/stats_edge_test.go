package stats

import (
	"math"
	"testing"
)

// A domain spanning more than half the int64 space used to compute a
// negative float bucket width (int64 subtraction wraps), so bucketOf
// returned a negative index and RecordQuery panicked on the first holistic
// select of a column holding both extremes — the wrap class PR 7 fixed in
// the cracker. Regression: the full-int64 domain must record and report
// without panicking and with all ranges inside the domain.
func TestRegisterFullInt64Domain(t *testing.T) {
	c := NewCollector()
	c.Register("c", math.MinInt64, math.MaxInt64)
	// Pre-fix, a predicate ending in the negative half produced bucketOf < 0.
	c.RecordQuery("c", -10, -1)
	c.RecordQuery("c", math.MinInt64, math.MinInt64+100)
	c.RecordQuery("c", math.MaxInt64-100, math.MaxInt64)
	c.RecordQuery("c", math.MinInt64, math.MaxInt64)
	if got := c.Queries("c"); got != 4 {
		t.Fatalf("queries = %d, want 4", got)
	}
	cs := c.cols["c"]
	b0, b1, ok := cs.bucketSpan(-10, -1)
	if !ok || b0 != b1 || !cs.bucketRange(b0).Contains(-10) || !cs.bucketRange(b1).Contains(-2) {
		t.Fatalf("negative-half range maps to buckets %d..%d (ok %v)", b0, b1, ok)
	}
}

// Degenerate registrations must normalise without wrapping, including the
// domLo == MaxInt64 corner where "+1" overflows.
func TestRegisterDegenerateDomains(t *testing.T) {
	c := NewCollector()
	c.Register("empty", 7, 7)
	c.RecordQuery("empty", 7, 8) // must not panic
	c.Register("top", math.MaxInt64, math.MaxInt64)
	c.RecordQuery("top", math.MaxInt64-1, math.MaxInt64)
	top := c.cols["top"]
	if b0, _, ok := top.bucketSpan(math.MaxInt64-1, math.MaxInt64); !ok || !top.bucketRange(b0).Contains(math.MaxInt64-1) {
		t.Fatalf("top-of-domain query maps to bucket %d (ok %v)", b0, ok)
	}
	// Narrower than the bucket count: width clamps to 1, trailing buckets
	// collapse to empty ranges and a query over the whole domain must never
	// reach them.
	c.Register("narrow", 0, 10)
	c.RecordQuery("narrow", 0, 10)
	cs := c.cols["narrow"]
	b0, b1, _ := cs.bucketSpan(0, 10)
	for b := 0; b < Buckets; b++ {
		if r := cs.bucketRange(b); (b0 <= b && b <= b1) != (r.Lo < r.Hi) || r.Hi > 10 {
			t.Fatalf("narrow-domain bucket %d %v, whole-domain query spans %d..%d", b, r, b0, b1)
		}
	}
}

// Bucket boundary values must land in the bucket whose half-open range
// contains them: v = k*width belongs to bucket k, v = k*width-1 to bucket
// k-1, and the part of a query outside the domain clamps to the edge buckets.
func TestBucketBoundaryValues(t *testing.T) {
	c := NewCollector() // 64 buckets over [0, 640): width exactly 10
	c.Register("c", 0, 640)
	cs := c.cols["c"]
	if r := cs.bucketRange(1); r != (Range{Lo: 10, Hi: 20}) {
		t.Fatalf("bucket 1 covers %v, want [10,20)", r)
	}
	for _, tc := range []struct {
		q      Range
		b0, b1 int
	}{
		{Range{10, 20}, 1, 1}, // boundary-aligned: exactly bucket 1
		{Range{19, 21}, 1, 2}, // straddles the 20 boundary: 1 and 2, not 3
		{Range{-100, 1}, 0, 0},
		{Range{639, 800}, Buckets - 1, Buckets - 1}, // the domain edges clamp
	} {
		if b0, b1, ok := cs.bucketSpan(tc.q.Lo, tc.q.Hi); !ok || b0 != tc.b0 || b1 != tc.b1 {
			t.Fatalf("%v spans buckets %d..%d (ok %v), want %d..%d", tc.q, b0, b1, ok, tc.b0, tc.b1)
		}
	}
}

// One geometry: on the full int64 space, a domain narrower than the bucket
// count and one whose span leaves the last bucket a remainder, a stream that
// walks up to the top bucket and stays there predicts whole buckets.
func TestPredictionsAreWholeBuckets(t *testing.T) {
	for _, dom := range []Range{
		{math.MinInt64, math.MaxInt64},
		{-1, 2},
		{1000, 1000 + 64*37 + 1},
	} {
		c := newDrift(4)
		c.Register("c", dom.Lo, dom.Hi)
		cs := c.cols["c"]
		top := cs.bucketOf(dom.Hi - 1)
		predicted := 0
		for _, b := range []int{top - 2, top - 1, top, top, top, top} {
			r := cs.bucketRange(b)
			for i := 0; i < 4; i++ {
				c.RecordQuery("c", r.Lo, r.Hi)
			}
			predicted += checkPredictions(t, c, "c")
		}
		if predicted == 0 {
			t.Fatalf("domain %v: stream produced no predictions to check", dom)
		}
	}
}

// catchUp across a large sequence gap must decay counters smoothly to zero —
// no NaN, no negative values, and Frequency falls back to the equal-share
// prior once all knowledge has aged out.
func TestCatchUpLargeSeqGap(t *testing.T) {
	c := NewCollector()
	c.Register("a", 0, 1000)
	c.Register("b", 0, 1000)
	for i := 0; i < 10; i++ {
		c.RecordQuery("a", 0, 100)
	}
	if f := c.Frequency("a"); f < 0.99 {
		t.Fatalf("fresh frequency = %f, want ~1", f)
	}
	// Simulate a huge quiet-then-busy-elsewhere gap without looping: the
	// decay catch-up is lazy, driven only by the sequence delta.
	for _, gap := range []uint64{1 << 20, 1 << 40, 1 << 62} {
		c.mu.Lock()
		c.seq += gap
		c.mu.Unlock()
		fa, fb := c.Frequency("a"), c.Frequency("b")
		if math.IsNaN(fa) || math.IsNaN(fb) || fa < 0 || fb < 0 {
			t.Fatalf("gap %d: frequencies a=%f b=%f", gap, fa, fb)
		}
		c.mu.Lock()
		dec := c.cols["a"].decayed
		c.mu.Unlock()
		if math.IsNaN(dec) || dec < 0 {
			t.Fatalf("gap %d: decayed count %f", gap, dec)
		}
	}
	// After ~2^62 decay steps every counter has underflowed to zero and the
	// collector is back at the no-knowledge prior: equal shares.
	if fa := c.Frequency("a"); fa != 0.5 {
		t.Fatalf("aged-out frequency = %f, want equal share 0.5", fa)
	}
	// New queries after the gap must re-establish statistics cleanly.
	c.RecordQuery("b", 500, 600)
	if f := c.Frequency("b"); f < 0.99 {
		t.Fatalf("post-gap frequency = %f, want ~1", f)
	}
}
