package stats

import (
	"math"
	"testing"
)

// newDrift returns a collector whose drift epochs close every epochQueries
// noted queries instead of DefaultEpochQueries, for hand-computable epochs.
func newDrift(epochQueries int) *Collector {
	c := NewCollector()
	c.epoch = epochQueries
	return c
}

// newTestForecaster gives small, hand-computable epochs: 64 buckets of width
// 100 over [0, 6400), epoch every 8 queries, EWMA alphas 0.5, trend gamma 1.
func newTestForecaster(t *testing.T) *Collector {
	t.Helper()
	fc := newDrift(8)
	fc.Register("c", 0, 6400)
	return fc
}

// feed observes the same range n times.
func feed(fc *Collector, col string, lo, hi int64, n int) {
	for i := 0; i < n; i++ {
		fc.RecordQuery(col, lo, hi)
	}
}

func wantPredictions(t *testing.T, got, want []Prediction) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d predictions %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i].Range != want[i].Range {
			t.Errorf("prediction %d range = %v, want %v", i, got[i].Range, want[i].Range)
		}
		if math.Abs(got[i].Confidence-want[i].Confidence) > 1e-12 {
			t.Errorf("prediction %d confidence = %g, want %g", i, got[i].Confidence, want[i].Confidence)
		}
	}
}

// A stationary stream must predict exactly the observed bucket with full
// confidence once three epochs (two velocity samples) have closed.
func TestPredictStationary(t *testing.T) {
	fc := newTestForecaster(t)
	feed(fc, "c", 100, 200, 16) // two epochs: no velocity evidence yet
	if got := fc.Predict("c"); got != nil {
		t.Fatalf("predictions before velocity evidence: %v", got)
	}
	feed(fc, "c", 100, 200, 8) // third epoch: velocity 0 twice, variance 0
	if e := fc.Epochs("c"); e != 3 {
		t.Fatalf("epochs = %d, want 3", e)
	}
	if conf := fc.Confidence("c"); conf != 1 {
		t.Fatalf("confidence = %g, want 1", conf)
	}
	wantPredictions(t, fc.Predict("c"), []Prediction{
		{Range: Range{Lo: 100, Hi: 200}, Confidence: 1},
	})
}

// A stream drifting one bucket per epoch must predict the NEXT (unvisited)
// bucket: the mass shifts by the learned velocity and the trend term kills
// the trailing buckets.
func TestPredictLinearDrift(t *testing.T) {
	fc := newTestForecaster(t)
	for k := int64(0); k < 6; k++ {
		feed(fc, "c", k*100, (k+1)*100, 8)
	}
	if conf := fc.Confidence("c"); conf != 1 {
		t.Fatalf("confidence = %g, want 1 (constant drift is fully learnable)", conf)
	}
	// Last epoch sat in bucket 5 ([500,600)); velocity is exactly +1 bucket
	// per epoch, so the forecast is bucket 6 ([600,700)) — a range no query
	// has touched yet.
	wantPredictions(t, fc.Predict("c"), []Prediction{
		{Range: Range{Lo: 600, Hi: 700}, Confidence: 1},
	})
}

// A sudden teleport destroys confidence: the centroid residual blows up the
// velocity variance and predictions are suppressed entirely.
func TestPredictSuddenJumpSuppresses(t *testing.T) {
	fc := newTestForecaster(t)
	feed(fc, "c", 100, 200, 32) // four stationary epochs, confidence 1
	if conf := fc.Confidence("c"); conf != 1 {
		t.Fatalf("confidence before jump = %g, want 1", conf)
	}
	feed(fc, "c", 4000, 4100, 8) // teleport: bucket 1 -> bucket 40
	conf := fc.Confidence("c")
	// resid = 39 against velocity 0: velVar = 0.5*39^2 = 760.5.
	if want := 1 / (1 + 760.5); math.Abs(conf-want) > 1e-12 {
		t.Fatalf("confidence after jump = %g, want %g", conf, want)
	}
	if got := fc.Predict("c"); got != nil {
		t.Fatalf("predictions after unlearnable jump: %v", got)
	}
}

// A stable bimodal workload must predict both modes, confidence split by
// mass share.
func TestPredictBimodal(t *testing.T) {
	fc := newTestForecaster(t)
	for e := 0; e < 3; e++ {
		feed(fc, "c", 200, 300, 4)   // bucket 2
		feed(fc, "c", 5000, 5100, 4) // bucket 50
	}
	wantPredictions(t, fc.Predict("c"), []Prediction{
		{Range: Range{Lo: 200, Hi: 300}, Confidence: 0.5},
		{Range: Range{Lo: 5000, Hi: 5100}, Confidence: 0.5},
	})
}

// Metamorphic property: epoch masses are normalised, so scaling every
// observation weight by a constant must leave predictions unchanged. With a
// power-of-two factor the float arithmetic commutes exactly, so the check
// is bit-exact; a non-power-of-two factor gets an epsilon.
func TestPredictMassScaleInvariant(t *testing.T) {
	type obs struct{ lo, hi int64 }
	stream := make([]obs, 0, 64)
	for k := int64(0); k < 6; k++ { // drifting stream, 6 epochs
		for i := 0; i < 8; i++ {
			stream = append(stream, obs{k * 100, (k + 1) * 100})
		}
	}
	run := func(w float64) []Prediction {
		fc := newDrift(8)
		fc.Register("c", 0, 6400)
		for _, o := range stream {
			fc.RecordWeighted("c", o.lo, o.hi, w)
		}
		return fc.Predict("c")
	}
	base := run(1)
	if len(base) == 0 {
		t.Fatal("base stream produced no predictions")
	}
	for _, w := range []float64{4, 0.25} { // power-of-two: bit-exact
		scaled := run(w)
		if len(scaled) != len(base) {
			t.Fatalf("w=%g: %d predictions, want %d", w, len(scaled), len(base))
		}
		for i := range base {
			if scaled[i] != base[i] {
				t.Errorf("w=%g: prediction %d = %+v, want exactly %+v", w, i, scaled[i], base[i])
			}
		}
	}
	wantPredictions(t, run(3), base) // arbitrary factor: within epsilon
}

// Degenerate domains must normalise instead of breaking bucket math.
func TestRegisterDegenerateDomain(t *testing.T) {
	fc := newDrift(8)
	fc.Register("c", 5, 5) // empty domain -> [5, 6)
	dom := fc.cols["c"].domain
	if dom.Lo != 5 || dom.Hi != 6 {
		t.Fatalf("domain = %v, want [5,6)", dom)
	}
	feed(fc, "c", 5, 6, 24)
	checkPredictions(t, fc, "c")
}

// The full int64 domain is the wrap class PR 7 fixed in the cracker: bucket
// width and offsets must be computed in uint64 so nothing overflows, and
// predictions must stay inside the domain.
func TestFullInt64Domain(t *testing.T) {
	fc := newDrift(8)
	fc.Register("c", math.MinInt64, math.MaxInt64)
	feed(fc, "c", math.MinInt64, math.MinInt64+10, 8)
	feed(fc, "c", -5, 5, 8)
	feed(fc, "c", math.MaxInt64-10, math.MaxInt64, 16)
	preds := fc.Predict("c")
	for _, p := range preds {
		if p.Range.Lo >= p.Range.Hi {
			t.Fatalf("empty predicted range %v", p.Range)
		}
		if p.Range.Hi > math.MaxInt64 || p.Range.Lo < math.MinInt64 {
			t.Fatalf("prediction %v outside int64 domain", p.Range)
		}
	}
}

// Observations with no usable location information must not advance the
// epoch clock or corrupt the model.
func TestObserveIgnoresDegenerateInput(t *testing.T) {
	fc := newTestForecaster(t)
	fc.RecordQuery("c", 300, 300)                // empty
	fc.RecordQuery("c", 500, 100)                // inverted
	fc.RecordWeighted("c", 100, 200, 0)          // zero weight
	fc.RecordWeighted("c", 100, 200, -3)         // negative weight
	fc.RecordWeighted("c", 100, 200, math.NaN()) // NaN weight
	fc.RecordQuery("c", 7000, 8000)              // entirely above the domain
	fc.RecordQuery("c", -100, -50)               // entirely below the domain
	fc.RecordQuery("missing", 100, 200)          // unknown column
	if e := fc.Epochs("c"); e != 0 {
		t.Fatalf("degenerate observations closed %d epochs, want 0", e)
	}
	feed(fc, "c", 100, 200, 24)
	wantPredictions(t, fc.Predict("c"), []Prediction{
		{Range: Range{Lo: 100, Hi: 200}, Confidence: 1},
	})
}
