// Command holisticbench regenerates every table and figure of the paper's
// evaluation section (and the conceptual Table 1 / Figures 1-2) at a
// configurable scale. Performance numbers for the kernel as a whole come
// from the repository's one benchmark, bench/ (see bench/README.md).
//
// Usage:
//
//	holisticbench -exp all                         # everything, default scale
//	holisticbench -exp fig3 -x 100 -n 10000000     # Figure 3(b) at 10^7 rows
//	holisticbench -exp fig4 -cols 10 -full 2       # Figure 4
//	holisticbench -exp table2 -queries 10000       # Table 2 (all three X)
//	holisticbench -exp fig3 -csv fig3.csv          # also dump CSV series
//
// The paper's scale is -n 100000000 -queries 10000 (needs ~6 GB and
// patience); defaults are laptop-sized and preserve the curves' shape.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"holistic/internal/harness"
)

// experiment is one table or figure of the paper; -exp all runs them in
// table order.
type experiment struct {
	name string
	run  func() error
}

// pick returns the experiments -exp name selects: all of them for "all",
// the one so named otherwise, and an error listing the valid names for
// anything else.
func pick(exps []experiment, name string) ([]experiment, error) {
	if name == "all" {
		return exps, nil
	}
	names := make([]string, len(exps))
	for i, e := range exps {
		if e.name == name {
			return exps[i : i+1], nil
		}
		names[i] = e.name
	}
	return nil, fmt.Errorf("unknown experiment %q (valid: %s|all)", name, strings.Join(names, "|"))
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table1|fig1|fig2|fig3|table2|fig4|all")
		n       = flag.Int("n", 1<<20, "rows per column")
		queries = flag.Int("queries", 2000, "queries per run")
		x       = flag.Int("x", 100, "refinement actions per idle window (fig3)")
		idleEv  = flag.Int("idle-every", 100, "queries between idle windows (fig3)")
		sel     = flag.Float64("sel", 0.01, "query selectivity")
		seed    = flag.Uint64("seed", 1, "RNG seed")
		cols    = flag.Int("cols", 10, "columns (fig4)")
		full    = flag.Int("full", 2, "full indexes offline builds a priori (fig4)")
		actions = flag.Int("actions", 100, "refinements per column for holistic (fig4)")
		target  = flag.Int("target", 1<<14, "holistic target piece size (values)")
		workers = flag.Int("idle-workers", 0, "idle worker pool size (0 = GOMAXPROCS)")
		csvPath = flag.String("csv", "", "write cumulative series CSV to this file")
		width   = flag.Int("plot-width", 72, "ASCII plot width")
		height  = flag.Int("plot-height", 18, "ASCII plot height")
	)
	flag.Parse()

	fig3 := func(x int) (*harness.Fig3Result, error) {
		return harness.RunFig3(harness.Fig3Config{
			N: *n, Queries: *queries, X: x, IdleEvery: *idleEv,
			Selectivity: *sel, Seed: *seed, TargetPieceSize: *target,
			IdleWorkers: *workers,
		})
	}

	exps := []experiment{
		{"table1", func() error {
			fmt.Println(harness.FormatTable1(harness.Table1Rows()))
			return nil
		}},
		{"fig1", func() error {
			fmt.Println(harness.FormatTimelines(12, 4))
			return nil
		}},
		{"fig2", func() error {
			fmt.Println(harness.Fig2(
				[]int64{13, 16, 4, 9, 2, 12, 7, 1, 19, 3, 14, 11, 8, 6},
				[][2]int64{{10, 14}, {7, 16}},
			))
			return nil
		}},
		{"fig3", func() error {
			res, err := fig3(*x)
			if err != nil {
				return err
			}
			title := fmt.Sprintf("Figure 3 (X=%d): T_init=%v, T_total_idle=%v, Time_sort=%v",
				*x, res.TInit.Round(0), res.IdleTotal.Round(0), res.TSort.Round(0))
			fmt.Println(harness.ASCIIPlot(title, res.Strategies(), *width, *height))
			if *csvPath != "" {
				if err := writeCSV(*csvPath, res); err != nil {
					return err
				}
				fmt.Printf("series written to %s\n", *csvPath)
			}
			return nil
		}},
		{"table2", func() error {
			for _, xi := range []int{10, 100, 1000} {
				res, err := fig3(xi)
				if err != nil {
					return err
				}
				fmt.Println(harness.FormatTable2(xi, harness.Table2(res)))
			}
			return nil
		}},
		{"fig4", func() error {
			res, err := harness.RunFig4(harness.Fig4Config{
				Columns: *cols, N: *n, Queries: *queries, Selectivity: *sel,
				Seed: *seed, FullIndexes: *full, ActionsPerColumn: *actions,
				TargetPieceSize: *target, IdleWorkers: *workers,
			})
			if err != nil {
				return err
			}
			title := fmt.Sprintf("Figure 4: %d columns, offline sorted %d fully (%v); holistic spread %d cracks/column (%v)",
				*cols, *full, res.OfflineIdle.Round(0), *actions, res.HolisticIdle.Round(0))
			fmt.Println(harness.ASCIIPlot(title, []*harness.Series{&res.Offline, &res.Holistic}, *width, *height))
			return nil
		}},
	}

	selected, err := pick(exps, *exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "holisticbench: %v\n", err)
		os.Exit(2)
	}
	for _, e := range selected {
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
	}
}

func writeCSV(path string, res *harness.Fig3Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return harness.WriteCSV(f, res.Strategies())
}
