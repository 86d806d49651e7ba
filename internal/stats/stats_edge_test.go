package stats

import (
	"math"
	"testing"
)

// catchUp across a large sequence gap must decay counters smoothly to zero —
// no NaN, no negative values, and Frequency falls back to the equal-share
// prior once all knowledge has aged out.
func TestCatchUpLargeSeqGap(t *testing.T) {
	c := NewCollector()
	c.Register("a")
	c.Register("b")
	for i := 0; i < 10; i++ {
		c.RecordQuery("a")
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
	c.RecordQuery("b")
	if f := c.Frequency("b"); f < 0.99 {
		t.Fatalf("post-gap frequency = %f, want ~1", f)
	}
}

// Observations that carry no usable mass change nothing: a zero, negative or
// NaN weight, and a query on an unknown column. A hostile weight is capped,
// so the decayed mass stays finite and every frequency a number.
func TestObserveIgnoresDegenerateInput(t *testing.T) {
	c := NewCollector()
	c.Register("c")
	c.Register("d")
	c.RecordWeighted("c", 0)
	c.RecordWeighted("c", -3)
	c.RecordWeighted("c", math.NaN())
	c.RecordQuery("missing")
	if q := c.Queries("c"); q != 0 {
		t.Fatalf("degenerate weights noted %d queries, want 0", q)
	}
	if f := c.Frequency("c"); f != 0.5 {
		t.Fatalf("frequency after degenerate input = %f, want the equal share 0.5", f)
	}
	for _, w := range []float64{math.Inf(1), math.MaxFloat64, math.MaxFloat64} {
		c.RecordWeighted("c", w)
	}
	c.RecordQuery("d")
	if dec := c.cols["c"].decayed; math.IsInf(dec, 0) || math.IsNaN(dec) || dec > 3*maxWeight {
		t.Fatalf("hostile weights left decayed mass %g", dec)
	}
	fc, fd := c.Frequency("c"), c.Frequency("d")
	if math.IsNaN(fc) || math.IsNaN(fd) || fc <= fd || math.Abs(fc+fd-1) > 1e-9 {
		t.Fatalf("frequencies after hostile weights: c=%g d=%g", fc, fd)
	}
}
