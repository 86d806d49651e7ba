package engine

// Mixed concurrent workload with radix-first coarse cracking forced on (a
// threshold far below the default, so coarse passes fire on real query
// traffic at every shard count). The radix pass rewrites whole pieces and
// inserts up to 255 boundaries at once — the widest structural change one
// exclusive hold of the index latch covers — so this runs readers, a writer, and
// idle refinement against the scan oracle under -race, at the single-part
// and many-part extremes.

import (
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

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
		t.Run("shards="+itoa(shards), func(t *testing.T) {
			e := newEngineWithData(t, Config{
				Strategy:        StrategyHolistic,
				Seed:            23,
				TargetPieceSize: 128,
				Shards:          shards,
				RadixMinPiece:   256,
				AutoIdle:        true,
				IdleQuiet:       time.Millisecond,
				IdleQuantum:     8,
				IdleWorkers:     4,
			}, seed)
			defer e.Close()
			tab, err := e.Table("R")
			if err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			errCh := make(chan error, readers+2)

			// Writer: inserts land strictly above the queried domain.
			wg.Add(1)
			go func() {
				defer wg.Done()
				wrng := rand.New(rand.NewPCG(15, 16))
				for i := 0; i < inserts; i++ {
					if _, err := tab.InsertRow(domain + wrng.Int64N(domain)); err != nil {
						errCh <- err
						return
					}
				}
			}()

			// Manual idle injector racing the auto pool.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 30; i++ {
					e.IdleActions(4)
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
						hi := lo + grng.Int64N(domain/32) + 1
						if hi > domain {
							hi = domain
						}
						r, err := e.Select("R", "A", lo, hi)
						if err != nil {
							errCh <- err
							return
						}
						wc, _ := naiveRange(seed, lo, hi)
						if r.Count != wc {
							errCh <- &mismatchError{"A", lo, hi, r.Count, wc}
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

			// Quiesced integrity: every shard validates, and the final state
			// matches the serial oracle.
			cs, err := e.colState("R", "A")
			if err != nil {
				t.Fatal(err)
			}
			if err := cs.validate(); err != nil {
				t.Fatal(err)
			}
			wantCount, wantSum := cs.oracleScan(0, 2*domain)
			r, err := e.Select("R", "A", 0, 2*domain)
			if err != nil {
				t.Fatal(err)
			}
			if r.Count != wantCount || r.Sum != wantSum {
				t.Fatalf("final state diverged: got %d/%d, oracle %d/%d",
					r.Count, r.Sum, wantCount, wantSum)
			}
			if wantCount != n+inserts {
				t.Fatalf("rows lost: %d live, want %d", wantCount, n+inserts)
			}
		})
	}
}
