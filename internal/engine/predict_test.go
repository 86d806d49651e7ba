package engine

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// TestSpeculativeStepNeverStartsAfterQueryAdmitted is the engine-level
// rendezvous proof for speculation: with reactive work drained and a
// confident forecast pending, a query admitted inside the idle worker's
// claim window must veto the speculative step before it can start, and no
// speculative budget may be consumed. Once the query completes, the same
// speculative work runs — proving the earlier zero was the veto, not
// exhaustion.
func TestSpeculativeStepNeverStartsAfterQueryAdmitted(t *testing.T) {
	rng := rand.New(rand.NewPCG(701, 702))
	const epoch = 8
	vals := randomVals(rng, 1<<15, 1<<20)
	e := newEngineWithData(t, Config{
		Strategy:        StrategyHolistic,
		Seed:            31,
		TargetPieceSize: 4096,
		Shards:          2,
		Predict:         true,
		PredictEpoch:    epoch,
		SpecBudget:      8,
	}, vals)
	defer e.Close()

	// Train a stationary forecast: three closed epochs per part give full
	// confidence, and the selects' reactive cracking gives the tuner real
	// work to drain first.
	for i := 0; i < 3*epoch; i++ {
		if _, err := e.Select("R", "A", 100000, 101000); err != nil {
			t.Fatal(err)
		}
	}
	for _, part := range []string{"R.A#0", "R.A#1"} {
		if conf := e.tuner.Collector().Confidence(part); conf != 1 {
			t.Fatalf("confidence(%s) = %f after stationary training, want 1", part, conf)
		}
	}
	// Drain reactive refinement through the manual-injection path, which
	// never touches the speculative budget.
	for i := 0; i < 100; i++ {
		if actions, _ := e.IdleActions(256); actions == 0 {
			break
		}
	}

	// Rendezvous: a query arrives between the worker's idle check and its
	// token grant — the speculative path must never be reached.
	e.runner.SetClaimHook(e.runner.Gate().Hold)
	if ran := e.runner.RunActions(5); ran != 0 {
		t.Fatalf("%d idle actions ran against an admitted query", ran)
	}
	if spent := e.runner.SpecSpent(); spent != 0 {
		t.Fatalf("speculative budget spent against an admitted query: %d", spent)
	}
	if got := e.tuner.SpecActions(); got != 0 {
		t.Fatalf("speculative actions ran against an admitted query: %d", got)
	}
	e.runner.SetClaimHook(nil)
	e.runner.Gate().Release()

	// The gap is real now: the pending speculative work runs, capped by the
	// per-gap budget.
	e.runner.RunActions(100)
	if got := e.runner.SpecActions(); got == 0 {
		t.Fatal("no speculative work after the query completed — the veto test proved nothing")
	}
	if spent, budget := e.runner.SpecSpent(), e.runner.SpecBudget(); spent > int64(budget) {
		t.Fatalf("speculative budget overrun: spent %d of %d", spent, budget)
	}
	fs := e.ForecastStats()
	if fs == nil || !fs.Enabled || fs.SpecActions == 0 {
		t.Fatalf("ForecastStats = %+v, want enabled with speculative actions", fs)
	}
	if len(fs.Columns) != 2 {
		t.Fatalf("ForecastStats.Columns has %d entries, want one per part", len(fs.Columns))
	}
}

// TestSpeculationNeverLosesAdversarial drives the forecaster with its worst
// case — a hot range teleporting at least a quarter of the domain every
// burst, so no learned drift is ever right — and proves the never-lose
// properties: every select stays oracle-exact, and speculation never spends
// more than its per-gap budget. Runs at 1 and 8 shards; the race detector
// covers the concurrent claim paths.
func TestSpeculationNeverLosesAdversarial(t *testing.T) {
	const (
		n       = 1 << 15
		domain  = int64(1 << 20)
		bursts  = 6
		qpb     = 16
		budget  = 4
		hotSpan = int64(4096)
	)
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(shards)*811, 812))
			vals := randomVals(rng, n, domain)
			e := newEngineWithData(t, Config{
				Strategy:        StrategyHolistic,
				Seed:            37,
				TargetPieceSize: 1024,
				Shards:          shards,
				Predict:         true,
				PredictEpoch:    qpb,
				SpecBudget:      budget,
			}, vals)
			defer e.Close()

			hot := domain / 8
			for b := 0; b < bursts; b++ {
				for q := 0; q < qpb; q++ {
					lo := hot + rng.Int64N(hotSpan/4)
					hi := lo + hotSpan
					r, err := e.Select("R", "A", lo, hi)
					if err != nil {
						t.Fatal(err)
					}
					wc, ws := naiveRange(vals, lo, hi)
					if r.Count != wc || r.Sum != ws {
						t.Fatalf("burst %d query %d [%d,%d): got %d/%d want %d/%d",
							b, q, lo, hi, r.Count, r.Sum, wc, ws)
					}
				}
				// Traffic gap: idle workers drain reactive work, then at most
				// `budget` speculative attempts.
				e.runner.RunActions(256)
				if spent := e.runner.SpecSpent(); spent > budget {
					t.Fatalf("burst %d: speculative budget overrun, spent %d of %d", b, spent, budget)
				}
				// Teleport: jump at least a quarter of the domain, wrapping.
				hot = (hot + domain/4 + rng.Int64N(domain/4)) % (domain - hotSpan)
			}
			// The cap held on every gap; totals stay bounded by construction.
			if total := e.runner.SpecSpent(); total > budget {
				t.Fatalf("final gap spent %d of %d", total, budget)
			}
		})
	}
}

// TestSpeculationWinsOnDrift is the learnable counterpart: a hot window one
// forecast bucket wide drifts exactly four buckets per burst, one forecaster
// epoch per burst, so after three warm-up bursts the velocity estimate is
// stable and each gap's speculation must pre-crack where the next burst
// lands. Gaps are deterministic runner.RunActions calls, not wall-clock
// sleeps; radix-first cracking is off so the cold-window partition is the
// cost speculation moves off the query path. Every answer stays
// oracle-exact, and speculation must both run and be hit by a later query.
func TestSpeculationWinsOnDrift(t *testing.T) {
	const (
		n      = 1 << 16
		width  = int64(n / 64) // one forecast bucket
		span   = width / 2
		bursts = 3 + 5 // three warm-up bursts, then the ones that must win
		qpb    = 16
	)
	rng := rand.New(rand.NewPCG(911, 912))
	vals := randomVals(rng, n, n)
	e := newEngineWithData(t, Config{
		Strategy: StrategyHolistic,
		Seed:     41,
		// Coarse, so reactive refinement exhausts early in each gap and the
		// rest of it is the speculative layer's (which refines 16x finer).
		TargetPieceSize: 1 << 13,
		RadixMinPiece:   -1,
		Predict:         true,
		PredictEpoch:    qpb,
	}, vals)
	defer e.Close()

	for b := 0; b < bursts; b++ {
		hot := n/8 + int64(b)*4*width
		for q := 0; q < qpb; q++ {
			lo := hot
			if q > 0 { // the burst opens on the window's origin
				lo += rng.Int64N(width - span)
			}
			r, err := e.Select("R", "A", lo, lo+span)
			if err != nil {
				t.Fatal(err)
			}
			wc, ws := naiveRange(vals, lo, lo+span)
			if r.Count != wc || r.Sum != ws {
				t.Fatalf("burst %d query %d [%d,%d): got %d/%d want %d/%d",
					b, q, lo, lo+span, r.Count, r.Sum, wc, ws)
			}
		}
		// Traffic gap: reactive work first, then speculation on the forecast.
		e.runner.RunActions(256)
	}
	if got := e.tuner.SpecActions(); got == 0 {
		t.Fatal("a learnable drift ran zero speculative actions")
	}
	if got := e.tuner.SpecWins(); got == 0 {
		t.Fatal("speculative pre-cracks on a learnable drift were never hit by a query")
	}
}

// TestForecastGeometrySurvivesRestart: the sketch buckets every part of a
// column over the COLUMN's domain, on load and on restore alike. The sharp
// case is a maximum that sits in one part: registering each restored part
// under its own bounds would give parts 1 and 2 buckets a tenth as wide as
// part 0's, so the same query stream would forecast different ranges after a
// warm restart than before it.
func TestForecastGeometrySurvivesRestart(t *testing.T) {
	const epoch, width = 8, int64(100_000) // width: one bucket of [0, 6.4M)
	cfg := Config{Strategy: StrategyHolistic, Seed: 43, Shards: 3, Predict: true, PredictEpoch: epoch}
	vals := randomVals(rand.New(rand.NewPCG(921, 922)), 3000, 6*width)
	vals[0], vals[1] = 64*width, 0 // the column's maximum lives in part 0 only
	// view runs a stream drifting one bucket per epoch, then renders every
	// part's forecast.
	view := func(e *Engine) string {
		for q := int64(0); q < 6*epoch; q++ {
			if _, err := e.Select("R", "A", q/epoch*width, (q/epoch+1)*width); err != nil {
				t.Fatal(err)
			}
		}
		fc := e.tuner.ForecastSummary()
		for _, cf := range fc {
			if len(fc) != 3 || len(cf.Ranges) == 0 || fmt.Sprint(cf.Ranges) != fmt.Sprint(fc[0].Ranges) {
				t.Fatalf("parts of one column forecast differently: %+v", fc)
			}
		}
		return fmt.Sprintf("%+v", fc)
	}
	e := newEngineWithData(t, cfg, vals)
	defer e.Close()
	before := view(e)
	st, err := e.CaptureState(func() {})
	if err != nil {
		t.Fatal(err)
	}
	restored := New(cfg)
	defer restored.Close()
	if err := restored.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if after := view(restored); after != before {
		t.Fatalf("sketch views changed across a restart:\nbefore %s\nafter  %s", before, after)
	}
}
