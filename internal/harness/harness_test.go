package harness

import (
	"slices"
	"strings"
	"testing"
	"time"

	"holistic/internal/engine"
	"holistic/internal/workload"
)

func TestSeriesCumulativeAndTotal(t *testing.T) {
	s := Series{Name: "x", PerQuery: []time.Duration{1, 2, 3}}
	c := s.Cumulative()
	if c[0] != 1 || c[1] != 3 || c[2] != 6 {
		t.Fatalf("cumulative %v", c)
	}
	if s.Total() != 6 {
		t.Fatalf("total %v", s.Total())
	}
}

func TestVerifyAgainst(t *testing.T) {
	a := []checksum{{1, 10}, {2, 20}}
	if err := verifyAgainst(a, []checksum{{1, 10}, {2, 20}}, "ok"); err != nil {
		t.Fatal(err)
	}
	if err := verifyAgainst(a, []checksum{{1, 10}}, "short"); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := verifyAgainst(a, []checksum{{1, 10}, {2, 21}}, "bad"); err == nil {
		t.Fatal("divergence accepted")
	}
}

// TestRunFig3SmallShape runs Exp1 at a tiny scale and asserts the paper's
// qualitative shape: Scan ≫ Adaptive ≥ Holistic on query-visible time, and
// offline's first query pays the uncovered build.
//
// Wall-clock comparisons carry tolerance margins, and the strategy-vs-
// strategy assertions are skipped under -short: on a loaded shared runner
// scheduler noise can invert small measured gaps without any regression in
// the code (the accounting checks below still run).
func TestRunFig3SmallShape(t *testing.T) {
	res, err := RunFig3(Fig3Config{
		N:               200000,
		Queries:         400,
		X:               50,
		IdleEvery:       100,
		Selectivity:     0.01,
		Seed:            42,
		TargetPieceSize: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	scan, adaptive, holistic := res.Scan.Total(), res.Adaptive.Total(), res.Holistic.Total()
	if !testing.Short() {
		if scan < adaptive*2 {
			t.Fatalf("scan (%v) should dwarf adaptive (%v)", scan, adaptive)
		}
		// 20% tolerance: idle cracks only help, but timer noise on shared
		// runners can nudge two near-equal totals either way.
		if holistic > adaptive+adaptive/5 {
			t.Fatalf("holistic (%v) should not exceed adaptive (%v): idle cracks only help", holistic, adaptive)
		}
	}
	if res.TInit <= 0 || res.IdleTotal < res.TInit || res.TSort <= 0 {
		t.Fatalf("idle accounting: t_init=%v idle=%v t_sort=%v", res.TInit, res.IdleTotal, res.TSort)
	}
	// Offline's first query includes the uncovered build remainder.
	if res.TSort > res.TInit {
		first := res.Offline.PerQuery[0]
		if firstExpected := res.TSort - res.TInit; first < firstExpected {
			t.Fatalf("offline first query %v below uncovered build %v", first, firstExpected)
		}
	}
	if len(res.Strategies()) != 4 {
		t.Fatal("strategy order incomplete")
	}
}

func TestTable2Derivation(t *testing.T) {
	res := &Fig3Result{
		Scan:      Series{Name: "Scan", PerQuery: []time.Duration{100 * time.Millisecond}},
		Offline:   Series{Name: "Offline", PerQuery: []time.Duration{30 * time.Millisecond}},
		Adaptive:  Series{Name: "Adaptive", PerQuery: []time.Duration{20 * time.Millisecond}},
		Holistic:  Series{Name: "Holistic", PerQuery: []time.Duration{5 * time.Millisecond}},
		TInit:     10 * time.Millisecond,
		TSort:     25 * time.Millisecond,
		IdleTotal: 12 * time.Millisecond,
	}
	rows := Table2(res)
	if len(rows) != 4 {
		t.Fatalf("rows %d", len(rows))
	}
	if rows[1].Strategy != "Offline" || rows[1].TotalWork != 40*time.Millisecond {
		// 30ms visible + 10ms covered by idle = 40ms total work.
		t.Fatalf("offline total work %v", rows[1].TotalWork)
	}
	if rows[3].TotalWork != 17*time.Millisecond {
		t.Fatalf("holistic total work %v", rows[3].TotalWork)
	}
	out := FormatTable2(10, rows)
	if !strings.Contains(out, "Scan") || !strings.Contains(out, "Holistic") {
		t.Fatalf("table format:\n%s", out)
	}
}

func TestTable2CoveredClamp(t *testing.T) {
	res := &Fig3Result{
		Scan:     Series{PerQuery: []time.Duration{time.Millisecond}},
		Offline:  Series{PerQuery: []time.Duration{time.Millisecond}},
		Adaptive: Series{PerQuery: []time.Duration{time.Millisecond}},
		Holistic: Series{PerQuery: []time.Duration{time.Millisecond}},
		TInit:    50 * time.Millisecond, // idle window larger than the sort
		TSort:    20 * time.Millisecond,
	}
	rows := Table2(res)
	if rows[1].TotalWork != time.Millisecond+20*time.Millisecond {
		t.Fatalf("covered not clamped to sort: %v", rows[1].TotalWork)
	}
}

// TestRunFig4Shape asserts Exp2's qualitative outcome: holistic, spreading
// partial indexes over all columns, ends far ahead of offline's two full
// indexes on a round-robin workload.
func TestRunFig4Shape(t *testing.T) {
	res, err := RunFig4(Fig4Config{
		Columns:          6,
		N:                120000,
		Queries:          300,
		Selectivity:      0.01,
		Seed:             11,
		FullIndexes:      2,
		ActionsPerColumn: 60,
		TargetPieceSize:  512,
	})
	if err != nil {
		t.Fatal(err)
	}
	off, hol := res.Offline.Total(), res.Holistic.Total()
	// Direction of the win at this small scale; BenchmarkFig4 asserts it
	// at full scale.
	// Skipped under -short: two measured wall-clock totals on a loaded
	// runner can cross without a code regression.
	if !testing.Short() && hol >= off {
		t.Fatalf("holistic (%v) should beat offline (%v) on round-robin", hol, off)
	}
	// Structural check, robust to load noise: offline's late cumulative
	// slope (scan-dominated, 4 of 6 columns unindexed) must exceed
	// holistic's (everything partially indexed).
	lateOff, lateHol := time.Duration(0), time.Duration(0)
	for i := len(res.Offline.PerQuery) - 100; i < len(res.Offline.PerQuery); i++ {
		lateOff += res.Offline.PerQuery[i]
		lateHol += res.Holistic.PerQuery[i]
	}
	if !testing.Short() && lateHol >= lateOff {
		t.Fatalf("late slope inverted: holistic %v vs offline %v", lateHol, lateOff)
	}
	if res.OfflineIdle <= 0 || res.HolisticIdle <= 0 {
		t.Fatalf("idle accounting: off=%v hol=%v", res.OfflineIdle, res.HolisticIdle)
	}
	// The first queries hit offline's indexed columns: offline must win those.
	if res.Offline.PerQuery[0] > res.Holistic.PerQuery[0]*100 {
		t.Fatalf("offline first (indexed) query suspiciously slow: %v vs %v",
			res.Offline.PerQuery[0], res.Holistic.PerQuery[0])
	}
}

func TestFig4ConfigClamping(t *testing.T) {
	res, err := RunFig4(Fig4Config{
		Columns: 3, N: 20000, Queries: 60, FullIndexes: 99, // clamped to 3
		ActionsPerColumn: 10, TargetPieceSize: 128, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// With every column fully indexed, offline should win or tie — the
	// experiment must still verify and complete.
	if len(res.Offline.PerQuery) != 60 || len(res.Holistic.PerQuery) != 60 {
		t.Fatal("query counts wrong")
	}
}

// TestFig4OneColumn: a single column is still named A1 and both passes
// run and agree.
func TestFig4OneColumn(t *testing.T) {
	res, err := RunFig4(Fig4Config{Columns: 1, N: 5000, Queries: 20, ActionsPerColumn: 5, TargetPieceSize: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Offline.PerQuery) != 20 || len(res.Holistic.PerQuery) != 20 {
		t.Fatal("query counts wrong")
	}
}

// passColumn is the one column the pass tests load: 0..n-1 shuffled.
func passColumn(n int) []column {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i * 7919 % n)
	}
	return []column{{"A", vals}}
}

// TestPassOpensIdleWindows counts the windows a pass opens through the
// tuner's actions: one of x actions before every IdleEvery-th query past
// the first, none a priori and none after the last query.
func TestPassOpensIdleWindows(t *testing.T) {
	const n, queries, idleEvery, x = 100000, 23, 5, 3
	e, err := newEngine(engine.StrategyHolistic, 1, 64, 1, passColumn(n))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	qs := pregenerate(workload.NewUniform("R", "A", 0, n, 0.01, 2), queries)
	if _, _, _, err := pass(e, "h", qs, idleEvery, x, 0); err != nil {
		t.Fatal(err)
	}
	windows := (queries - 1) / idleEvery
	if got := e.Tuner().Actions(); got != int64(windows*x) {
		t.Fatalf("tuner ran %d actions, want %d windows of %d", got, windows, x)
	}
}

// TestPassFirstWait: the wait is charged to query 1 and to no other.
func TestPassFirstWait(t *testing.T) {
	e, err := newEngine(engine.StrategyScan, 1, 0, 1, passColumn(1000))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s, _, _, err := pass(e, "s", pregenerate(workload.NewUniform("R", "A", 0, 1000, 0.1, 2), 10), 0, 0, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range s.PerQuery {
		if (d >= time.Hour) != (i == 0) {
			t.Fatalf("query %d took %v", i+1, d)
		}
	}
}

// TestPassDivergenceFails: one changed value makes a strategy's answers
// differ from the first pass's, and the check names the query.
func TestPassDivergenceFails(t *testing.T) {
	qs := []workload.Query{{Table: "R", Column: "A", Lo: 0, Hi: 10}, {Table: "R", Column: "A", Lo: 500, Hi: 510}}
	answers := func(cols []column) []checksum {
		e, err := newEngine(engine.StrategyAdaptive, 1, 0, 1, cols)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		_, sums, _, err := pass(e, "a", qs, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return sums
	}
	want := answers(passColumn(1000))
	cols := passColumn(1000)
	cols[0].vals[slices.Index(cols[0].vals, 505)] = 2000
	err := verifyAgainst(want, answers(cols), "changed")
	if err == nil || !strings.Contains(err.Error(), "query 1") {
		t.Fatalf("diverging answers: %v", err)
	}
}

func TestASCIIPlot(t *testing.T) {
	s1 := &Series{Name: "a", PerQuery: []time.Duration{time.Millisecond, time.Millisecond}}
	s2 := &Series{Name: "b", PerQuery: []time.Duration{5 * time.Millisecond, 5 * time.Millisecond}}
	out := ASCIIPlot("test", []*Series{s1, s2}, 40, 10)
	if !strings.Contains(out, "test") || !strings.Contains(out, "[s] a") || !strings.Contains(out, "[o] b") {
		t.Fatalf("plot:\n%s", out)
	}
	if ASCIIPlot("empty", nil, 0, 0) == "" {
		t.Fatal("empty plot produced nothing")
	}
}

func TestWriteCSV(t *testing.T) {
	s1 := &Series{Name: "a", PerQuery: []time.Duration{time.Millisecond, time.Millisecond}}
	s2 := &Series{Name: "b", PerQuery: []time.Duration{2 * time.Millisecond}}
	var b strings.Builder
	if err := WriteCSV(&b, []*Series{s1, s2}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv:\n%s", b.String())
	}
	if lines[0] != "query,a,b" {
		t.Fatalf("header %q", lines[0])
	}
	if lines[2] != "2,2000,2000" {
		// series b pads with its final value.
		t.Fatalf("row %q", lines[2])
	}
	if err := WriteCSV(&b, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1Rows()
	if len(rows) != 4 {
		t.Fatalf("rows %d", len(rows))
	}
	// Spot-check against the paper's matrix.
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	off := byName["offline"]
	if !off.StatisticalAnalysis || !off.IdleTimeAPriori || off.IdleTimeDuring || off.IncrementalIndexing || off.Workload != "static" {
		t.Fatalf("offline row: %+v", off)
	}
	hol := byName["holistic"]
	if !(hol.StatisticalAnalysis && hol.IdleTimeAPriori && hol.IdleTimeDuring && hol.IncrementalIndexing) || hol.Workload != "dynamic" {
		t.Fatalf("holistic row: %+v", hol)
	}
	out := FormatTable1(rows)
	for _, want := range []string{"offline", "online", "adaptive", "holistic", "Workload"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTimelineSchematic(t *testing.T) {
	// Offline: a-priori analysis and monolithic build, idle gaps unused.
	off := Timeline(engine.StrategyOffline, 6, 3)
	if off[0] != SlotAnalyze || off[1] != SlotBuild {
		t.Fatalf("offline prologue: %c%c", off[0], off[1])
	}
	if !containsSlot(off, SlotIdle) {
		t.Fatal("offline never shows unused idle")
	}
	// Holistic: refines a priori, in queries, and in idle gaps.
	hol := Timeline(engine.StrategyHolistic, 6, 3)
	if !containsSlot(hol, SlotRefine) || !containsSlot(hol, SlotAdapt) {
		t.Fatalf("holistic slots: %s", slotString(hol))
	}
	if containsSlot(hol, SlotIdle) {
		t.Fatal("holistic left idle time unused")
	}
	// Adaptive: refines in queries but wastes idle gaps.
	ad := Timeline(engine.StrategyAdaptive, 6, 3)
	if !containsSlot(ad, SlotAdapt) || !containsSlot(ad, SlotIdle) {
		t.Fatalf("adaptive slots: %s", slotString(ad))
	}
	out := FormatTimelines(8, 4)
	for _, want := range []string{"offline", "online", "adaptive", "holistic"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Figure 1 missing %s:\n%s", want, out)
		}
	}
}

func containsSlot(slots []TimelineSlot, k TimelineSlot) bool {
	for _, s := range slots {
		if s == k {
			return true
		}
	}
	return false
}

func slotString(slots []TimelineSlot) string {
	b := make([]byte, len(slots))
	for i, s := range slots {
		b[i] = byte(s)
	}
	return string(b)
}

func TestFig2Rendering(t *testing.T) {
	out := Fig2([]int64{13, 16, 4, 9, 2, 12, 7, 1, 19, 3}, [][2]int64{{10, 14}, {7, 16}})
	for _, want := range []string{"Q1", "Q2", "piece", "initial column"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Figure 2 missing %q:\n%s", want, out)
		}
	}
	// After Q1 the column must show at least 3 pieces.
	if strings.Count(out, "piece [") < 5 {
		t.Fatalf("too few pieces rendered:\n%s", out)
	}
}
