package harness

import (
	"fmt"
	"time"

	"holistic/internal/engine"
	"holistic/internal/workload"
)

// Fig4Config parameterises the multi-column experiment (paper Exp2,
// Figure 4): the workload touches every column round robin, but a-priori
// idle time suffices to fully index only a few of them. Offline spends the
// idle window sorting FullIndexes columns completely; holistic spreads
// ActionsPerColumn random refinements over all columns instead.
type Fig4Config struct {
	Columns          int
	N                int // rows per column
	Queries          int
	Selectivity      float64
	Seed             uint64
	FullIndexes      int // offline: columns fully indexed a priori (paper: 2)
	ActionsPerColumn int // holistic: refinements per column (paper: 100)
	TargetPieceSize  int
	// IdleWorkers: see engine.Config.
	IdleWorkers int
}

func (c *Fig4Config) fill() {
	if c.Columns <= 0 {
		c.Columns = 10
	}
	if c.N <= 0 {
		c.N = 1 << 18
	}
	if c.Queries <= 0 {
		c.Queries = 1000
	}
	if c.Selectivity <= 0 {
		c.Selectivity = 0.01
	}
	if c.FullIndexes <= 0 {
		c.FullIndexes = 2
	}
	if c.FullIndexes > c.Columns {
		c.FullIndexes = c.Columns
	}
	if c.ActionsPerColumn <= 0 {
		c.ActionsPerColumn = 100
	}
}

// Fig4Result holds both strategies' series and their a-priori idle costs.
type Fig4Result struct {
	Offline  Series
	Holistic Series
	// OfflineIdle is the time offline spent sorting its FullIndexes columns.
	OfflineIdle time.Duration
	// HolisticIdle is the time holistic spent on its spread refinements.
	HolisticIdle time.Duration
}

// RunFig4 executes Exp2. Both strategies see identical columns and the same
// round-robin query sequence, one after the other, offline first; results
// are cross-verified.
func RunFig4(cfg Fig4Config) (*Fig4Result, error) {
	cfg.fill()
	domHi := int64(cfg.N) + 1
	cols := make([]column, cfg.Columns)
	gens := make([]workload.Generator, cfg.Columns)
	for i := range cols {
		name := fmt.Sprintf("A%d", i+1) // A1..An, as in the paper
		cols[i] = column{name, workload.UniformData(cfg.Seed+uint64(i)*101, cfg.N, 1, domHi)}
		gens[i] = workload.NewUniform("R", name, 1, domHi, cfg.Selectivity, cfg.Seed+7000+uint64(i))
	}
	queries := pregenerate(workload.NewRoundRobin(gens...), cfg.Queries)

	res := &Fig4Result{}
	var want []checksum
	for _, r := range []struct {
		strategy engine.Strategy
		out      *Series
		name     string
		idle     *time.Duration
		apriori  func(e *engine.Engine) error
	}{
		// Offline sorts the first FullIndexes columns in the a-priori idle
		// time.
		{engine.StrategyOffline, &res.Offline, "Offline Indexing", &res.OfflineIdle, func(e *engine.Engine) error {
			for _, c := range cols[:cfg.FullIndexes] {
				if _, err := e.BuildFullIndex("R", c.name); err != nil {
					return err
				}
			}
			return nil
		}},
		// Holistic spreads ActionsPerColumn × Columns refinements instead;
		// with no workload knowledge the tuner's equal prior rotates columns
		// round robin, exactly the paper's setup.
		{engine.StrategyHolistic, &res.Holistic, "Holistic Indexing", &res.HolisticIdle, func(e *engine.Engine) error {
			e.IdleActions(cfg.ActionsPerColumn * cfg.Columns)
			return nil
		}},
	} {
		e, err := newEngine(r.strategy, cfg.Seed, cfg.TargetPieceSize, cfg.IdleWorkers, cols)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		err = r.apriori(e)
		*r.idle = time.Since(t0)
		var sums []checksum
		if err == nil {
			*r.out, sums, _, err = pass(e, r.name, queries, 0, 0, 0)
		}
		e.Close()
		if err != nil {
			return nil, err
		}
		if want == nil {
			want = sums
		}
		if err := verifyAgainst(want, sums, r.name); err != nil {
			return nil, err
		}
	}
	return res, nil
}
