package harness

import (
	"fmt"
	"strings"

	"holistic/internal/engine"
)

// Figure 1 of the paper is a schematic: how each indexing approach
// interleaves statistical analysis (W), index building (B), query
// processing (Q), incremental refinement inside queries (q), idle-time
// refinement (R) and unexploited idle time (.) along a query sequence.
// Timeline reproduces that schematic from the strategies' capability flags,
// so the rendering is honest about what each engine configuration actually
// does rather than a hand-drawn picture.

// TimelineSlot is one unit of schematic time.
type TimelineSlot byte

// Slot kinds.
const (
	SlotAnalyze TimelineSlot = 'W' // workload/statistics analysis
	SlotBuild   TimelineSlot = 'B' // full index building
	SlotQuery   TimelineSlot = 'Q' // query served without refinement
	SlotAdapt   TimelineSlot = 'q' // query that also refines (cracking)
	SlotRefine  TimelineSlot = 'R' // idle-time refinement
	SlotIdle    TimelineSlot = '.' // idle time left unexploited
)

// Timeline renders one strategy's schematic over a workload of `queries`
// queries with an idle gap after every `gapEvery` queries.
func Timeline(s engine.Strategy, queries, gapEvery int) []TimelineSlot {
	caps := s.Capabilities()
	var out []TimelineSlot
	// A-priori phase.
	if caps.StatisticalAnalysis && caps.IdleTimeAPriori {
		out = append(out, SlotAnalyze)
	}
	if caps.IdleTimeAPriori {
		if caps.IncrementalIndexing {
			out = append(out, SlotRefine, SlotRefine) // partial indexes spread
		} else {
			out = append(out, SlotBuild, SlotBuild) // monolithic build
		}
	}
	for q := 1; q <= queries; q++ {
		if caps.IncrementalIndexing {
			out = append(out, SlotAdapt)
		} else {
			out = append(out, SlotQuery)
		}
		if caps.StatisticalAnalysis && !caps.IdleTimeAPriori && q%gapEvery == 0 {
			// Online: periodic review and potential build inside the
			// workload, penalising the triggering query.
			out = append(out, SlotAnalyze, SlotBuild)
		}
		if gapEvery > 0 && q%gapEvery == 0 && q < queries {
			if caps.IdleTimeDuring {
				out = append(out, SlotRefine)
			} else {
				out = append(out, SlotIdle)
			}
		}
	}
	return out
}

// FormatTimelines renders Figure 1: one schematic row per strategy.
func FormatTimelines(queries, gapEvery int) string {
	var b strings.Builder
	b.WriteString("Figure 1 (schematic): query sequence evolution per indexing approach\n")
	b.WriteString("W=stats analysis  B=full build  Q=query  q=query+refine  R=idle refine  .=idle unused\n\n")
	for _, s := range []engine.Strategy{engine.StrategyOffline, engine.StrategyOnline, engine.StrategyAdaptive, engine.StrategyHolistic} {
		slots := Timeline(s, queries, gapEvery)
		fmt.Fprintf(&b, "%-9s ", s.String())
		for _, sl := range slots {
			b.WriteByte(byte(sl))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Table1Row is one strategy's feature row.
type Table1Row struct {
	Name string
	engine.Capabilities
}

// Table1Rows derives the paper's Table 1 from the engine's strategy
// capability flags (scan excluded, as in the paper).
func Table1Rows() []Table1Row {
	var rows []Table1Row
	for _, s := range []engine.Strategy{engine.StrategyOffline, engine.StrategyOnline, engine.StrategyAdaptive, engine.StrategyHolistic} {
		rows = append(rows, Table1Row{Name: s.String(), Capabilities: s.Capabilities()})
	}
	return rows
}
