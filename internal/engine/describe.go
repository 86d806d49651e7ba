package engine

import (
	"fmt"
	"sort"
	"strings"
)

// ColumnDesign describes the live physical design of one column — what an
// administrator (or the holistic tuner) sees when inspecting the kernel.
type ColumnDesign struct {
	Table  string
	Column string
	Rows   int // live rows
	// FullIndex reports whether every part's index is sorted (offline/online).
	FullIndex bool
	// Cracked reports whether a part holds a cracked, unsorted index.
	Cracked bool
	// Pieces / AvgPieceSize describe the cracker index (0 when !Cracked).
	Pieces       int
	AvgPieceSize float64
	// PendingInserts / PendingDeletes count buffered updates not yet merged,
	// summed across shards.
	PendingInserts int
	PendingDeletes int
	// Shards is the number of striped parts the column is split into.
	Shards int
}

// DescribePhysicalDesign returns the current physical design of every
// column, sorted by table then column name.
func (e *Engine) DescribePhysicalDesign() []ColumnDesign {
	var out []ColumnDesign
	for _, t := range e.tableList() {
		cat := t.cat.Load()
		live := int(t.live.Load())
		for _, name := range cat.order {
			sc := cat.cols[name]
			d := ColumnDesign{
				Table:     t.name,
				Column:    name,
				Rows:      live,
				FullIndex: sc.HasSorted(),
				Cracked:   sc.AnyCracked(),
				Shards:    sc.Shards(),
			}
			if d.Cracked {
				d.Pieces, d.AvgPieceSize = sc.PieceStats()
			}
			d.PendingInserts, d.PendingDeletes = sc.PendingCounts()
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Column < out[j].Column
	})
	return out
}

// FormatPhysicalDesign renders DescribePhysicalDesign as a table.
func FormatPhysicalDesign(ds []ColumnDesign) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %10s %7s %6s %8s %8s %10s %9s %9s\n",
		"column", "rows", "shards", "full", "cracked", "pieces", "avg-piece", "pend-ins", "pend-del")
	for _, d := range ds {
		yes := func(v bool) string {
			if v {
				return "yes"
			}
			return "-"
		}
		fmt.Fprintf(&b, "%-20s %10d %7d %6s %8s %8d %10.0f %9d %9d\n",
			d.Table+"."+d.Column, d.Rows, d.Shards, yes(d.FullIndex), yes(d.Cracked),
			d.Pieces, d.AvgPieceSize, d.PendingInserts, d.PendingDeletes)
	}
	return b.String()
}
