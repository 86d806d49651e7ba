//go:build wallclock

package harness

// Wall-clock claims about Figure 3, built only with -tags wallclock: two
// measured totals on a shared host differ by scheduler noise, so tier-1
// carries their count twins, engine.TestMoreIdleCutsSelectWork,
// engine.TestHolisticQueryWorkEqualsAdaptive and
// engine.TestScanReadsDwarfAdaptiveWork, instead.

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestFig3MoreIdleHelpsHolistic: the paper's headline — holistic's total
// drops as X grows (Table 2's 7.3 / 3.6 / 1.6 progression). Best of three
// pairs of fresh runs, each within 20 % for scheduler noise.
func TestFig3MoreIdleHelpsHolistic(t *testing.T) {
	run := func(x int) time.Duration {
		res, err := RunFig3(Fig3Config{
			N: 300000, Queries: 300, X: x, IdleEvery: 50,
			Selectivity: 0.01, Seed: 7, TargetPieceSize: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Holistic.Total()
	}
	var tries []string
	for range 3 {
		small, large := run(5), run(200)
		if large <= small+small/5 {
			return
		}
		tries = append(tries, fmt.Sprintf("X=5 -> %v, X=200 -> %v", small, large))
	}
	t.Fatalf("more idle actions made holistic slower in 3 tries: %s", strings.Join(tries, "; "))
}

// TestFig3HolisticWithinAdaptive: idle cracks only help, so holistic's
// query-visible total stays within 20 % of adaptive's on the same stream.
// Best of three fresh runs.
func TestFig3HolisticWithinAdaptive(t *testing.T) {
	var tries []string
	for range 3 {
		res, err := RunFig3(Fig3Config{
			N: 200000, Queries: 400, X: 50, IdleEvery: 100,
			Selectivity: 0.01, Seed: 42, TargetPieceSize: 1024,
		})
		if err != nil {
			t.Fatal(err)
		}
		holistic, adaptive := res.Holistic.Total(), res.Adaptive.Total()
		if holistic <= adaptive+adaptive/5 {
			return
		}
		tries = append(tries, fmt.Sprintf("holistic %v, adaptive %v", holistic, adaptive))
	}
	t.Fatalf("holistic exceeded adaptive by more than 20 %% in 3 tries: %s", strings.Join(tries, "; "))
}

// TestFig3ScanDwarfsAdaptive: scan's query-visible total is at least twice
// adaptive's on TestRunFig3SmallShape's stream. Best of three fresh runs.
func TestFig3ScanDwarfsAdaptive(t *testing.T) {
	var tries []string
	for range 3 {
		res, err := RunFig3(Fig3Config{
			N: 200000, Queries: 400, X: 50, IdleEvery: 100,
			Selectivity: 0.01, Seed: 42, TargetPieceSize: 1024,
		})
		if err != nil {
			t.Fatal(err)
		}
		scan, adaptive := res.Scan.Total(), res.Adaptive.Total()
		if scan >= 2*adaptive {
			return
		}
		tries = append(tries, fmt.Sprintf("scan %v, adaptive %v", scan, adaptive))
	}
	t.Fatalf("scan did not reach twice adaptive in 3 tries: %s", strings.Join(tries, "; "))
}
