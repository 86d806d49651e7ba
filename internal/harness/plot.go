package harness

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// ASCIIPlot renders cumulative response time curves on log-log axes, the
// layout of the paper's Figures 3 and 4, as a terminal-friendly chart.
// Each series gets a distinct marker; later series overwrite earlier ones
// where curves overlap.
func ASCIIPlot(title string, series []*Series, width, height int) string {
	if width < 20 {
		width = 72
	}
	if height < 8 {
		height = 20
	}
	markers := []byte{'s', 'o', 'c', 'h', '+', '*'}

	// Collect log-space extents.
	maxQ := 0
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		if len(s.PerQuery) > maxQ {
			maxQ = len(s.PerQuery)
		}
		for _, c := range s.Cumulative() {
			ly := logMicros(c)
			minY = math.Min(minY, ly)
			maxY = math.Max(maxY, ly)
		}
	}
	if maxQ == 0 || math.IsInf(minY, 1) {
		return title + "\n(no data)\n"
	}
	if maxY-minY < 1e-9 {
		maxY = minY + 1
	}
	maxX := math.Log10(float64(maxQ))
	if maxX <= 0 {
		maxX = 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		m := markers[si%len(markers)]
		for i, c := range s.Cumulative() {
			x := int(math.Log10(float64(i+1)) / maxX * float64(width-1))
			ry := (logMicros(c) - minY) / (maxY - minY)
			row := height - 1 - int(ry*float64(height-1))
			if row >= 0 && row < height && x >= 0 && x < width {
				grid[row][x] = m
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "cumulative response time (log µs), y: 10^%.1f .. 10^%.1f\n", minY, maxY)
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("+" + strings.Repeat("-", width) + "> query # (log)\n")
	for si, s := range series {
		fmt.Fprintf(&b, "  [%c] %s (total %s)\n", markers[si%len(markers)], s.Name, s.Total().Round(0))
	}
	return b.String()
}

// logMicros is d's height on the plot's y axis: log10 of its microseconds,
// 0 below one.
func logMicros(d time.Duration) float64 {
	return math.Log10(max(float64(d.Microseconds()), 1))
}

// WriteCSV emits one row per query with each series' cumulative time in
// microseconds: "query,<name1>,<name2>,...". Shorter series pad with their
// final value, keeping the file rectangular.
func WriteCSV(w io.Writer, series []*Series) error {
	if len(series) == 0 {
		return nil
	}
	header := "query"
	for _, s := range series {
		header += "," + strings.ReplaceAll(s.Name, ",", "_")
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	cums := make([][]int64, len(series))
	maxQ := 0
	for i, s := range series {
		for _, c := range s.Cumulative() {
			cums[i] = append(cums[i], c.Microseconds())
		}
		if len(cums[i]) > maxQ {
			maxQ = len(cums[i])
		}
	}
	for q := 0; q < maxQ; q++ {
		row := fmt.Sprintf("%d", q+1)
		for i := range series {
			v := int64(0)
			switch {
			case q < len(cums[i]):
				v = cums[i][q]
			case len(cums[i]) > 0:
				v = cums[i][len(cums[i])-1]
			}
			row += fmt.Sprintf(",%d", v)
		}
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	return nil
}

// FormatTable1 renders the paper's Table 1 feature matrix from the live
// strategy capability flags.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: features of the indexing approaches\n")
	fmt.Fprintf(&b, "%-10s %-12s %-12s %-12s %-12s %-8s\n",
		"Indexing", "StatAnalysis", "IdleAPriori", "IdleDuring", "Incremental", "Workload")
	mark := func(v bool) string {
		if v {
			return "yes"
		}
		return "-"
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-12s %-12s %-12s %-12s %-8s\n",
			r.Name, mark(r.StatisticalAnalysis), mark(r.IdleTimeAPriori),
			mark(r.IdleTimeDuring), mark(r.IncrementalIndexing), r.Workload)
	}
	return b.String()
}
