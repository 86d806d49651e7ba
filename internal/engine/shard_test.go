package engine

// Tests for the sharded kernel: every strategy must agree with the serial
// scan oracle at any shard count, a single select must really execute on
// several shards at once, and the mixed concurrent workload of
// parallel_test.go must hold across shard counts {1, 2, 8}. Run with -race.

import (
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

// TestShardedStrategiesMatchOracle sweeps shard counts across all five
// strategies: every select must match the serial-scan oracle exactly.
func TestShardedStrategiesMatchOracle(t *testing.T) {
	const (
		n       = 20000
		domain  = int64(1 << 16)
		queries = 80
	)
	rng := rand.New(rand.NewPCG(201, 202))
	seed := randomVals(rng, n, domain)

	for _, shards := range []int{1, 2, 8} {
		for _, tc := range strategiesUnderTest {
			t.Run(tc.name+"/shards="+itoa(shards), func(t *testing.T) {
				cfg := Config{
					Strategy:        tc.s,
					Seed:            13,
					TargetPieceSize: 128,
					Shards:          shards,
				}
				e := newEngineWithData(t, cfg, seed)
				defer e.Close()
				if tc.s == StrategyOffline {
					if _, err := e.BuildFullIndex("R", "A"); err != nil {
						t.Fatal(err)
					}
				}
				qrng := rand.New(rand.NewPCG(7, uint64(shards)))
				for i := 0; i < queries; i++ {
					lo := qrng.Int64N(domain)
					hi := lo + qrng.Int64N(domain/16) + 1
					r, err := e.Select("R", "A", lo, hi)
					if err != nil {
						t.Fatal(err)
					}
					wc, ws := naiveRange(seed, lo, hi)
					if r.Count != wc || r.Sum != ws {
						t.Fatalf("[%d,%d): got %d/%d want %d/%d", lo, hi, r.Count, r.Sum, wc, ws)
					}
				}
				if tc.s == StrategyHolistic {
					e.IdleActions(64)
					// Idle refinement must not change any answer.
					lo := domain / 4
					r, err := e.Select("R", "A", lo, 3*lo)
					if err != nil {
						t.Fatal(err)
					}
					wc, ws := naiveRange(seed, lo, 3*lo)
					if r.Count != wc || r.Sum != ws {
						t.Fatalf("post-idle: got %d/%d want %d/%d", r.Count, r.Sum, wc, ws)
					}
				}
				sc, _ := e.column("R", "A")
				if err := sc.Validate(); err != nil {
					t.Fatal(err)
				}
				if got := e.Shards(); got != shards {
					t.Fatalf("Shards() = %d, want %d", got, shards)
				}
			})
		}
	}
}

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

// TestShardedMixedWorkload extends the parallel_test.go stress pattern to
// the sharded engine: concurrent exact-oracle readers, disjoint-domain
// writers and idle refinement (manual + auto pool) race over shard counts
// {1, 2, 8}, and the quiesced end state must match the tombstone-aware scan.
func TestShardedMixedWorkload(t *testing.T) {
	const (
		n       = 20000
		domain  = int64(1 << 16)
		readers = 4
		queries = 80
		inserts = 150
	)
	rng := rand.New(rand.NewPCG(401, 402))
	seed := randomVals(rng, n, domain)

	for _, shards := range []int{1, 2, 8} {
		t.Run("shards="+itoa(shards), func(t *testing.T) {
			e := newEngineWithData(t, Config{
				Strategy:        StrategyHolistic,
				Seed:            19,
				TargetPieceSize: 128,
				Shards:          shards,
				AutoIdle:        true,
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
				wrng := rand.New(rand.NewPCG(5, 6))
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
				for i := 0; i < 40; i++ {
					e.IdleActions(4)
				}
			}()

			// Readers: exact oracle checks on the immutable low domain.
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					grng := rand.New(rand.NewPCG(uint64(g)+30, 40))
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

			// Quiesced integrity: validate every shard and check the final
			// state against the serial oracle.
			sc, err := e.column("R", "A")
			if err != nil {
				t.Fatal(err)
			}
			if err := sc.Validate(); err != nil {
				t.Fatal(err)
			}
			wantCount, wantSum := oracleScan(sc, 0, 2*domain)
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

// TestShardedDeletesMatchOracle exercises DeleteWhere routing across shards.
func TestShardedDeletesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(501, 502))
	const domain = int64(500)
	seed := randomVals(rng, 3000, domain)
	ref := append([]int64{}, seed...)

	e := newEngineWithData(t, Config{Strategy: StrategyHolistic, Seed: 23, Shards: 4}, seed)
	defer e.Close()
	tab, _ := e.Table("R")

	for i := 0; i < 400; i++ {
		switch rng.IntN(3) {
		case 0:
			v := rng.Int64N(domain)
			if _, err := tab.InsertRow(v); err != nil {
				t.Fatal(err)
			}
			ref = append(ref, v)
		case 1:
			v := rng.Int64N(domain)
			deleted, err := tab.DeleteWhere("A", v)
			if err != nil {
				t.Fatal(err)
			}
			inRef := false
			for j, rv := range ref {
				if rv == v {
					ref = append(ref[:j], ref[j+1:]...)
					inRef = true
					break
				}
			}
			if deleted != inRef {
				t.Fatalf("DeleteWhere(%d) = %v, reference says %v", v, deleted, inRef)
			}
		case 2:
			lo := rng.Int64N(domain)
			hi := lo + rng.Int64N(domain/4) + 1
			r, err := e.Select("R", "A", lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			wc, ws := naiveRange(ref, lo, hi)
			if r.Count != wc || r.Sum != ws {
				t.Fatalf("op %d [%d,%d): got %d/%d want %d/%d", i, lo, hi, r.Count, r.Sum, wc, ws)
			}
		}
	}
	if got := tab.Rows(); got != len(ref) {
		t.Fatalf("Rows() = %d, want %d", got, len(ref))
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
