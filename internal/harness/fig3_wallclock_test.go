//go:build wallclock

package harness

// Wall-clock claims about Figure 3, built only with -tags wallclock: two
// measured totals on a shared host differ by scheduler noise, so tier-1
// carries the count twin, engine.TestMoreIdleCutsSelectWork, instead.

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
