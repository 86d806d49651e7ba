package engine

// Tests for the sharded kernel: a single select must really execute on
// several shards at once. Every strategy at shard counts {1, 3, 8}, alone
// and under concurrent readers, writers and idle windows, is
// TestEngineMatchesModel's (model_test.go). Run with -race.

import (
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

// TestShardedSelectRunsShardsConcurrently is the acceptance-criterion test:
// with >= 2 shards, ONE large select on an uncracked column must execute
// scan/crack work on at least two shards at the same time. A rendezvous hook
// blocks every fan-out worker until two distinct shards are inside their
// select; a serial implementation would never release it and trips the
// timeout instead of passing by luck.
func TestShardedSelectRunsShardsConcurrently(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Strategy
	}{
		{"scan", StrategyScan},         // scan work fans out
		{"holistic", StrategyHolistic}, // first-touch crack work fans out
	} {
		t.Run(tc.name, func(t *testing.T) {
			// 65 536 rows a shard: three shards' worth of first-touch work
			// taken off the caller is well past costmodel.FanOutMinWork.
			rng := rand.New(rand.NewPCG(301, 302))
			seed := randomVals(rng, 1<<18, 1<<20)
			e := newEngineWithData(t, Config{Strategy: tc.s, Seed: 17, Shards: 4}, seed)
			defer e.Close()
			sc, err := e.column("R", "A")
			if err != nil {
				t.Fatal(err)
			}

			// Cold, the column is uncracked: the select does the initial scan
			// (or cracked-copy materialisation + crack) on every shard.
			// Repeated, a scan is the same work again, but for the holistic
			// select both bounds are crack boundaries on every shard: ~33 000
			// values a shard cost two boundary sums and a subtraction, so it
			// runs inline on this goroutine and no fan-out worker may be
			// entered. The hook fires only in fan-out workers.
			for _, phase := range []string{"cold", "repeated"} {
				inline := tc.s == StrategyHolistic && phase == "repeated"
				var mu sync.Mutex
				inside := map[int]bool{}
				release := make(chan struct{})
				var releaseOnce sync.Once
				timeout := time.After(10 * time.Second)
				sc.SetSelectHook(func(part int) {
					mu.Lock()
					inside[part] = true
					ready := len(inside) >= 2
					mu.Unlock()
					if inline {
						return // reported below; do not wait for a second worker
					}
					if ready {
						// Two parts can both see ready at once.
						releaseOnce.Do(func() { close(release) })
					}
					select {
					case <-release:
					case <-timeout:
						t.Errorf("%s: single select never had 2 shards in flight", phase)
					}
				})
				r, err := e.Select("R", "A", 1<<18, 3<<18)
				sc.SetSelectHook(nil)
				if err != nil {
					t.Fatal(err)
				}
				wc, ws := naiveRange(seed, 1<<18, 3<<18)
				if r.Count != wc || r.Sum != ws {
					t.Fatalf("%s: got %d/%d want %d/%d", phase, r.Count, r.Sum, wc, ws)
				}
				if inline && len(inside) != 0 {
					t.Fatalf("%s: %d shards entered the fan-out, want a converged select to run inline", phase, len(inside))
				}
				if !inline && len(inside) < 2 {
					t.Fatalf("%s: %d shards entered the fan-out, want >= 2", phase, len(inside))
				}
			}
			if shards := sc.Shards(); shards != 4 {
				t.Fatalf("shards = %d", shards)
			}
		})
	}
}
