package shard

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"holistic/internal/core"
	"holistic/internal/idle"
	"holistic/internal/updates"
)

// TestShardedRadixMixedWorkload races radix-first coarse cracking against
// readers, a writer and idle refinement — an automatic pool behind a load
// gate and manual windows past it, wired as the engine wires a holistic
// column — at the single-part and many-part extremes, and checks every read
// against the scan oracle. The threshold sits far below the default, so
// coarse passes fire on real query traffic at every part count. The radix
// pass rewrites whole pieces and inserts up to 255 boundaries at once — the
// widest structural change one exclusive hold of the index latch covers.
// Run with -race.
func TestShardedRadixMixedWorkload(t *testing.T) {
	const (
		n       = 20000
		domain  = int64(1 << 16)
		readers = 4
		queries = 60
		inserts = 120
	)
	rng := rand.New(rand.NewPCG(811, 812))
	seed := randomVals(rng, n, domain)

	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c, err := NewColumn("R.A", slices.Clone(seed), Config{Shards: shards, radixMin: 256})
			if err != nil {
				t.Fatal(err)
			}
			tu := core.NewTuner(core.Config{TargetPieceSize: 128, Seed: 23}, nil)
			for _, p := range c.Parts() {
				tu.Register(p, 0, 2*domain)
			}
			pool := idle.NewRunner(func() bool {
				_, res := tu.TryStep()
				return res == core.StepWorked
			}, 4)
			pool.Start()
			defer pool.Stop()
			gate := pool.Gate()

			var wg sync.WaitGroup
			errCh := make(chan error, readers)

			// Writer: inserts land strictly above the queried domain.
			wg.Add(1)
			go func() {
				defer wg.Done()
				wrng := rand.New(rand.NewPCG(15, 16))
				for i := 0; i < inserts; i++ {
					gate.Hold()
					c.AppendAt(uint32(n+i), domain+wrng.Int64N(domain))
					gate.Release()
				}
			}()

			// Manual idle windows racing the automatic pool.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 30; i++ {
					tu.RunActionsParallel(4, 4)
				}
			}()

			// Readers: exact oracle checks on the immutable low domain.
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					grng := rand.New(rand.NewPCG(uint64(g)+70, 80))
					for i := 0; i < queries; i++ {
						lo := grng.Int64N(domain)
						hi := min(lo+grng.Int64N(domain/32)+1, domain)
						gate.Hold()
						count, sum := c.CountSum(lo, hi, updates.AllRows, (*Part).ProbeAt, (*Part).CrackedSelectAt)
						for _, p := range c.Parts() {
							tu.NoteQuery(p.Name(), lo, hi)
						}
						gate.Release()
						if wc, ws := naiveRange(seed, lo, hi); count != wc || sum != ws {
							errCh <- fmt.Errorf("[%d,%d): got %d/%d, oracle %d/%d", lo, hi, count, sum, wc, ws)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}

			// Quiesced integrity: every part validates, and the final state
			// matches the tombstone-aware scan.
			pool.Stop()
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
			wantCount, wantSum := c.FanOutCountSum(func(p *Part) (int, int64) { return p.ScanCountSumAt(0, 2*domain, updates.AllRows) })
			count, sum := c.CountSum(0, 2*domain, updates.AllRows, (*Part).ProbeAt, (*Part).CrackedSelectAt)
			if count != wantCount || sum != wantSum {
				t.Fatalf("final state diverged: got %d/%d, oracle %d/%d", count, sum, wantCount, wantSum)
			}
			if wantCount != n+inserts {
				t.Fatalf("rows lost: %d live, want %d", wantCount, n+inserts)
			}
		})
	}
}
