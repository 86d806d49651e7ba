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

// colName returns the i-th column's name (A1..An, as in the paper).
func colName(i int) string { return fmt.Sprintf("A%d", i+1) }

// RunFig4 executes Exp2. Both strategies see identical columns and the same
// round-robin query sequence; results are cross-verified.
func RunFig4(cfg Fig4Config) (*Fig4Result, error) {
	cfg.fill()
	domHi := int64(cfg.N) + 1
	cols := make([][]int64, cfg.Columns)
	for i := range cols {
		cols[i] = workload.UniformData(cfg.Seed+uint64(i)*101, cfg.N, 1, domHi)
	}
	// Round-robin query sequence over all columns.
	gens := make([]workload.Generator, cfg.Columns)
	for i := range gens {
		gens[i] = workload.NewUniform("R", colName(i), 1, domHi, cfg.Selectivity, cfg.Seed+7000+uint64(i))
	}
	rr := workload.NewRoundRobin(gens...)
	queries := make([]workload.Query, cfg.Queries)
	for i := range queries {
		queries[i] = rr.Next()
	}

	build := func(strategy engine.Strategy) (*engine.Engine, error) {
		e := engine.New(engine.Config{
			Strategy:        strategy,
			Seed:            cfg.Seed,
			TargetPieceSize: cfg.TargetPieceSize,
			IdleWorkers:     cfg.IdleWorkers,
		})
		tab, err := e.CreateTable("R")
		if err != nil {
			return nil, err
		}
		for i, data := range cols {
			if err := tab.AddColumnFromSlice(colName(i), append([]int64{}, data...)); err != nil {
				return nil, err
			}
		}
		return e, nil
	}

	res := &Fig4Result{}

	// Offline: sort the first FullIndexes columns during the idle window.
	eOff, err := build(engine.StrategyOffline)
	if err != nil {
		return nil, err
	}
	defer eOff.Close()
	t0 := time.Now()
	for i := 0; i < cfg.FullIndexes; i++ {
		if _, err := eOff.BuildFullIndex("R", colName(i)); err != nil {
			return nil, err
		}
	}
	res.OfflineIdle = time.Since(t0)

	// Holistic: spread ActionsPerColumn × Columns refinements; with no
	// workload knowledge the tuner's equal prior rotates columns round
	// robin, exactly the paper's setup.
	eHol, err := build(engine.StrategyHolistic)
	if err != nil {
		return nil, err
	}
	defer eHol.Close()
	t0 = time.Now()
	eHol.IdleActions(cfg.ActionsPerColumn * cfg.Columns)
	res.HolisticIdle = time.Since(t0)

	// Run the query sequence on both.
	offSeries := Series{Name: "Offline Indexing", PerQuery: make([]time.Duration, 0, len(queries))}
	holSeries := Series{Name: "Holistic Indexing", PerQuery: make([]time.Duration, 0, len(queries))}
	offSums := make([]checksum, 0, len(queries))
	holSums := make([]checksum, 0, len(queries))
	for _, q := range queries {
		r, err := eOff.Select(q.Table, q.Column, q.Lo, q.Hi)
		if err != nil {
			return nil, err
		}
		offSeries.PerQuery = append(offSeries.PerQuery, r.Elapsed)
		offSums = append(offSums, checksum{r.Count, r.Sum})

		r, err = eHol.Select(q.Table, q.Column, q.Lo, q.Hi)
		if err != nil {
			return nil, err
		}
		holSeries.PerQuery = append(holSeries.PerQuery, r.Elapsed)
		holSums = append(holSums, checksum{r.Count, r.Sum})
	}
	if err := verifyAgainst(offSums, holSums, "Holistic (Fig4)"); err != nil {
		return nil, err
	}
	offSeries.SetExtra("idle_used", res.OfflineIdle.Seconds())
	holSeries.SetExtra("idle_used", res.HolisticIdle.Seconds())
	res.Offline = offSeries
	res.Holistic = holSeries
	return res, nil
}
