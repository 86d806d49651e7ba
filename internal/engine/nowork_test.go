package engine

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"holistic/internal/cracker"
)

// TestHolisticQueryWorkEqualsAdaptive is the count twin of the paper's "No
// Time" claim: with no idle time, a holistic select does an adaptive select's
// crack work and no more. One holistic and one adaptive engine see the same
// data and the same stream — random 1 % ranges, one range repeated 30 times,
// bounds at MinInt64/MaxInt64, an empty and an inverted range — and after
// every select their answers, every part's crack work and piece count, and
// every part's boundaries must be identical. A one-part column is large
// enough for the radix-first pass; three parts are not.
func TestHolisticQueryWorkEqualsAdaptive(t *testing.T) {
	const n, domain = 1 << 18, int64(1 << 20)
	vals := randomVals(rand.New(rand.NewPCG(31, 32)), n, domain)
	hot := [2]int64{domain / 4, domain/4 + domain/100}
	var stream [][2]int64
	rng := rand.New(rand.NewPCG(33, 34))
	for i := 0; i < 30; i++ {
		lo := rng.Int64N(domain)
		stream = append(stream, [2]int64{lo, lo + domain/100}, hot)
	}
	stream = append(stream,
		[2]int64{math.MinInt64, domain / 8},
		[2]int64{domain - domain/8, math.MaxInt64},
		[2]int64{math.MinInt64, math.MaxInt64},
		[2]int64{domain / 2, domain / 3}, // inverted
		[2]int64{domain / 2, domain / 2}, // empty
		hot,
	)
	for _, shards := range []int{1, 3} {
		cfg := Config{Seed: 5, Shards: shards, TargetPieceSize: 64}
		cfg.Strategy = StrategyHolistic
		ho := newEngineWithData(t, cfg, vals)
		cfg.Strategy = StrategyAdaptive
		ad := newEngineWithData(t, cfg, vals)
		for i, q := range stream {
			rh, err := ho.Select("R", "A", q[0], q[1])
			if err != nil {
				t.Fatal(err)
			}
			ra, err := ad.Select("R", "A", q[0], q[1])
			if err != nil {
				t.Fatal(err)
			}
			wc, ws := naiveRange(vals, q[0], q[1])
			if rh.Count != wc || rh.Sum != ws || ra.Count != wc || ra.Sum != ws {
				t.Fatalf("shards=%d q%d %v: holistic %d/%d, adaptive %d/%d, oracle %d/%d",
					shards, i, q, rh.Count, rh.Sum, ra.Count, ra.Sum, wc, ws)
			}
			hp, ap := crackedParts(t, ho), crackedParts(t, ad)
			for j := range hp {
				h, a := hp[j], ap[j]
				if (h == nil) != (a == nil) {
					t.Fatalf("shards=%d q%d part %d: holistic cracked %v, adaptive cracked %v", shards, i, j, h != nil, a != nil)
				}
				if h == nil {
					continue
				}
				if h.Work() != a.Work() || h.Pieces() != a.Pieces() {
					t.Fatalf("shards=%d q%d %v part %d: holistic work %d in %d pieces, adaptive %d in %d",
						shards, i, q, j, h.Work(), h.Pieces(), a.Work(), a.Pieces())
				}
				if !slices.Equal(h.Boundaries(), a.Boundaries()) {
					t.Fatalf("shards=%d q%d %v part %d: boundaries differ", shards, i, q, j)
				}
			}
		}
		ho.Close()
		ad.Close()
	}
}

// crackedParts returns every part's cracked copy of R.A, nil where a part
// has none yet.
func crackedParts(t *testing.T, e *Engine) []*cracker.Index {
	t.Helper()
	sc, err := e.column("R", "A")
	if err != nil {
		t.Fatal(err)
	}
	var out []*cracker.Index
	for _, p := range sc.Parts() {
		p.RLock()
		out = append(out, p.Cracked())
		p.RUnlock()
	}
	return out
}

// TestFullIndexTakesNoIdleWork: a full index is converged, so idle time has
// nothing left to refine on it. A holistic engine sorts its column, serves
// 50 selects, then gets an idle window of 200 actions: none may partition a
// value, and the column must stay a full index, not grow a cracked copy that
// no select would read.
func TestFullIndexTakesNoIdleWork(t *testing.T) {
	const n, domain = 200_000, int64(1 << 20)
	vals := randomVals(rand.New(rand.NewPCG(35, 36)), n, domain)
	e := newEngineWithData(t, Config{Strategy: StrategyHolistic, Seed: 1, TargetPieceSize: 4, IdleWorkers: 1}, vals)
	defer e.Close()
	if _, err := e.BuildFullIndex("R", "A"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(37, 38))
	for i := 0; i < 50; i++ {
		lo := rng.Int64N(domain)
		res, err := e.Select("R", "A", lo, lo+domain/100)
		if wc, ws := naiveRange(vals, lo, lo+domain/100); err != nil || res.Count != wc || res.Sum != ws {
			t.Fatalf("select %d: %+v, %v; oracle %d/%d", i, res, err, wc, ws)
		}
	}
	actions, work := e.IdleActions(200)
	d := e.DescribePhysicalDesign()[0]
	if work != 0 || !d.FullIndex || d.Cracked {
		t.Fatalf("idle window ran %d actions touching %d values; design %+v", actions, work, d)
	}
}
