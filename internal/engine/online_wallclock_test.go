//go:build wallclock

package engine

// Wall-clock claims about the online strategy, built only with -tags
// wallclock: one timed select against another is a scheduler sample on a
// shared host, so tier-1 carries the count twin,
// TestOnlineProbeDeclinesUntilEpochCloses, instead.

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"time"
)

// TestOnlineSelectAfterBuildBeatsScan: once the select that closes the
// review's epoch has built the full index, a select costs at most a tenth of
// the epoch's first scan. Best of three fresh engines.
func TestOnlineSelectAfterBuildBeatsScan(t *testing.T) {
	var tries []string
	for range 3 {
		rng := rand.New(rand.NewPCG(51, 52))
		e := newEngineWithData(t, Config{Strategy: StrategyOnline}, randomVals(rng, 500000, 1<<20))
		var scan time.Duration
		for i := 0; i < 100; i++ { // the review's epoch
			lo := rng.Int64N(1 << 20)
			r, err := e.Select("R", "A", lo, lo+1000)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				scan = r.Elapsed
			}
		}
		r, err := e.Select("R", "A", 1000, 2000)
		e.Close()
		if err != nil {
			t.Fatal(err)
		}
		if r.Elapsed <= scan/10 {
			return
		}
		tries = append(tries, fmt.Sprintf("%v against %v", r.Elapsed, scan))
	}
	t.Fatalf("post-build query not much cheaper than the first scan on any of 3 fresh engines: %s", strings.Join(tries, "; "))
}
