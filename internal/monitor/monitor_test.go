package monitor

import (
	"testing"
)

// observeEpoch sends one epoch of queries on col and returns the advice the
// last of them closed the epoch with.
func observeEpoch(a *Advisor, col string, selectivity float64) []Advice {
	var advice []Advice
	for i := 0; i < epoch; i++ {
		advice = a.Observe(col, selectivity)
	}
	return advice
}

func TestHotColumnGetsBuildAdvice(t *testing.T) {
	a := New()
	a.Register("hot", 1_000_000)
	a.Register("cold", 1_000_000)
	advice := observeEpoch(a, "hot", 0.01)
	if len(advice) != 1 || !advice[0].Build || advice[0].Column != "hot" {
		t.Fatalf("advice = %+v", advice)
	}
	if advice[0].Benefit <= 0 {
		t.Fatalf("benefit %f", advice[0].Benefit)
	}
}

func TestAdviceOnlyAtEpochBoundary(t *testing.T) {
	a := New()
	a.Register("a", 1_000_000)
	for i := 0; i < epoch-1; i++ {
		if adv := a.Observe("a", 0.01); adv != nil {
			t.Fatalf("advice before epoch boundary at query %d: %+v", i, adv)
		}
	}
	if adv := a.Observe("a", 0.01); adv == nil {
		t.Fatal("no advice at epoch boundary")
	}
}

// TestTinyColumnNotWorthIndexing: on 8 rows two binary searches cost more
// than the scan they replace, so no horizon of queries pays for a build.
func TestTinyColumnNotWorthIndexing(t *testing.T) {
	a := New()
	a.Register("tiny", 8)
	if advice := observeEpoch(a, "tiny", 0.5); len(advice) != 0 {
		t.Fatalf("tiny column advised: %+v", advice)
	}
}

// TestBuildMustPayForSort pins the build threshold to the comparison sort's
// price. A 1M-row column queried once per epoch at 1% selectivity saves
// about 0.99M per query, 9.9M over the horizon: less than its n·log2 n ≈
// 19.9M build, so no advice (a 9n price would have advised it). Three
// queries per epoch save 29.7M and do get a build.
func TestBuildMustPayForSort(t *testing.T) {
	for _, tc := range []struct {
		perEpoch int
		build    bool
	}{{1, false}, {3, true}} {
		a := New()
		a.Register("rare", 1_000_000)
		a.Register("other", 1_000_000)
		a.SetIndexed("other", true)
		var advice []Advice
		for i := 0; i < epoch; i++ {
			col := "other"
			if i < tc.perEpoch {
				col = "rare"
			}
			advice = a.Observe(col, 0.01)
		}
		built := len(advice) == 1 && advice[0].Build && advice[0].Column == "rare"
		if built != tc.build || (!tc.build && len(advice) != 0) {
			t.Fatalf("%d queries per epoch: advice %+v, want build=%v", tc.perEpoch, advice, tc.build)
		}
	}
}

func TestIndexedColumnNotReAdvised(t *testing.T) {
	a := New()
	a.Register("a", 1_000_000)
	a.SetIndexed("a", true)
	for _, ad := range observeEpoch(a, "a", 0.01) {
		if ad.Build {
			t.Fatalf("re-advised building: %+v", ad)
		}
	}
}

func TestDropAfterIdleEpochs(t *testing.T) {
	a := New()
	a.Register("used", 1_000_000)
	a.Register("stale", 1_000_000)
	a.SetIndexed("stale", true)
	var all []Advice
	// dropAfterEpochs epochs of queries that never touch "stale".
	for e := 0; e < dropAfterEpochs; e++ {
		all = append(all, observeEpoch(a, "used", 0.01)...)
	}
	foundDrop := false
	for _, ad := range all {
		if ad.Drop && ad.Column == "stale" {
			foundDrop = true
		}
		if ad.Drop && ad.Column == "used" {
			t.Fatal("dropped a used index")
		}
	}
	if !foundDrop {
		t.Fatalf("stale index never dropped: %+v", all)
	}
}

func TestIdleCounterResetsOnUse(t *testing.T) {
	a := New()
	a.Register("a", 1_000_000)
	a.SetIndexed("a", true)
	a.Register("b", 1_000_000)
	noDrop := func(why string, advice []Advice) {
		t.Helper()
		for _, ad := range advice {
			if ad.Drop {
				t.Fatalf("dropped %s", why)
			}
		}
	}
	// One epoch short of the drop, a is used once: its idle counter resets,
	// so another dropAfterEpochs-1 idle epochs still keep its index.
	for e := 0; e < dropAfterEpochs-1; e++ {
		noDrop("before the idle limit", observeEpoch(a, "b", 0.01))
	}
	a.Observe("a", 0.01)
	for i := 1; i < epoch; i++ {
		noDrop("in the epoch that used it", a.Observe("b", 0.01))
	}
	for e := 0; e < dropAfterEpochs-1; e++ {
		noDrop("despite the reset", observeEpoch(a, "b", 0.01))
	}
}

func TestForceReview(t *testing.T) {
	a := New()
	a.Register("a", 1_000_000)
	for i := 0; i < epoch/2; i++ {
		a.Observe("a", 0.01)
	}
	adv := a.ForceReview()
	if len(adv) != 1 || !adv[0].Build {
		t.Fatalf("forced review: %+v", adv)
	}
	// Counters were consumed by the review.
	adv = a.ForceReview()
	if len(adv) != 0 {
		t.Fatalf("second review not empty: %+v", adv)
	}
}

func TestSelectivityClamped(t *testing.T) {
	a := New()
	a.Register("a", 1_000_000)
	// A negative selectivity clamps to 0: the cheapest possible indexed
	// queries, so the build is clearly worth it.
	adv := observeEpoch(a, "a", -5)
	if len(adv) != 1 || !adv[0].Build {
		t.Fatalf("clamped-to-0 advice: %+v", adv)
	}
	// A selectivity above 1 clamps to 1: the index cannot beat a scan that
	// returns everything, so no build may be advised.
	for _, ad := range observeEpoch(a, "a", 42) {
		if ad.Build {
			t.Fatalf("clamped-to-1 still advised a build: %+v", ad)
		}
	}
}

func TestDeterministicAdviceOrder(t *testing.T) {
	a := New()
	a.Register("a", 1_000_000)
	a.Register("b", 2_000_000)
	var adv []Advice
	for i := 0; i < epoch; i++ {
		col := "a"
		if i >= epoch/2 {
			col = "b"
		}
		adv = a.Observe(col, 0.01)
	}
	if len(adv) != 2 {
		t.Fatalf("advice: %+v", adv)
	}
	if adv[0].Benefit < adv[1].Benefit {
		t.Fatal("advice not ordered by benefit")
	}
}

func TestUnknownColumnObserve(t *testing.T) {
	a := New()
	a.Register("a", 100)
	for i := 0; i < epoch-1; i++ {
		a.Observe("ghost", 0.5) // ignored but still advances the epoch clock
	}
	if adv := a.Observe("a", 0.5); adv == nil {
		// Review ran (empty advice is fine) — the epoch clock must have
		// advanced despite the unknown column.
		t.Log("empty advice at boundary is acceptable")
	}
}
