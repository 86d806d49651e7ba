package engine

// Stress tests for the multi-core kernel: mixed concurrent selects, inserts
// and idle refinement under every strategy, asserted against a serial scan
// oracle. Run with -race; the point of these tests is the interleavings.
//
// The trick that makes exact assertions possible mid-race: queries range
// over the seed data's domain [0, domain) while concurrent writers insert
// only values in the disjoint high domain [domain, 2*domain). A query on the
// low domain therefore has exactly one correct (Count, Sum) answer no matter
// how the inserts interleave, and a final full-domain query checks that the
// inserts themselves all landed.

import (
	"math/rand/v2"
	"sync"
	"testing"
)

// strategiesUnderTest is every strategy the stress test runs. Offline gets
// its full index built before the storm.
var strategiesUnderTest = []struct {
	name string
	s    Strategy
}{
	{"scan", StrategyScan},
	{"offline", StrategyOffline},
	{"online", StrategyOnline},
	{"adaptive", StrategyAdaptive},
	{"holistic", StrategyHolistic},
}

func TestParallelMixedWorkloadAllStrategies(t *testing.T) {
	const (
		n       = 30000
		domain  = int64(1 << 16)
		readers = 4
		queries = 120
		inserts = 200
	)
	rng := rand.New(rand.NewPCG(77, 78))
	seed := randomVals(rng, n, domain)

	for _, tc := range strategiesUnderTest {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Strategy:        tc.s,
				Seed:            9,
				TargetPieceSize: 256,
			}
			if tc.s == StrategyHolistic {
				cfg.AutoIdle = true
				cfg.IdleWorkers = 4
			}
			e := newEngineWithData(t, cfg, seed)
			defer e.Close()
			if tc.s == StrategyOffline {
				if _, err := e.BuildFullIndex("R", "A"); err != nil {
					t.Fatal(err)
				}
			}
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
				wrng := rand.New(rand.NewPCG(3, 4))
				for i := 0; i < inserts; i++ {
					if _, err := tab.InsertRow(domain + wrng.Int64N(domain)); err != nil {
						errCh <- err
						return
					}
				}
			}()

			// Manual idle injector, racing the auto pool where enabled.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					e.IdleActions(4)
				}
			}()

			// Readers: exact oracle checks on the immutable low domain.
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					grng := rand.New(rand.NewPCG(uint64(g)+10, 20))
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
						wc, ws := naiveRange(seed, lo, hi)
						if r.Count != wc || r.Sum != ws {
							errCh <- &mismatchError{tc.name, lo, hi, r.Count, wc}
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

			// Quiesced integrity: the cracked copy still validates, and a
			// full-domain query sees seed + inserts exactly.
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
				t.Fatalf("final state diverged: got %d/%d, scan oracle %d/%d",
					r.Count, r.Sum, wantCount, wantSum)
			}
			if wantCount != n+inserts {
				t.Fatalf("rows lost: %d live, want %d", wantCount, n+inserts)
			}
		})
	}
}

// TestParallelCrackingConvergence hammers one holistic column from many
// goroutines with no writers at all, so every result is exactly checkable,
// and asserts the concurrent crack path converges to a valid,
// well-partitioned index.
func TestParallelCrackingConvergence(t *testing.T) {
	const (
		n      = 50000
		domain = int64(1 << 20)
		gs     = 8
	)
	rng := rand.New(rand.NewPCG(101, 102))
	seed := randomVals(rng, n, domain)
	e := newEngineWithData(t, Config{
		Strategy:        StrategyHolistic,
		Seed:            11,
		TargetPieceSize: 128,
		AutoIdle:        true,
		IdleWorkers:     4,
	}, seed)
	defer e.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, gs)
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			grng := rand.New(rand.NewPCG(uint64(g)+50, 60))
			for i := 0; i < 200; i++ {
				lo := grng.Int64N(domain)
				hi := lo + grng.Int64N(domain/128) + 1
				r, err := e.Select("R", "A", lo, hi)
				if err != nil {
					errCh <- err
					return
				}
				wc, ws := naiveRange(seed, lo, hi)
				if r.Count != wc || r.Sum != ws {
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

	cs, err := e.colState("R", "A")
	if err != nil {
		t.Fatal(err)
	}
	if !cs.anyCracked() {
		t.Fatal("cracked copy never materialised")
	}
	if err := cs.validate(); err != nil {
		t.Fatal(err)
	}
	if pieces, _ := cs.pieceStats(); pieces < 2 {
		t.Fatalf("index never cracked: %d pieces", pieces)
	}
}
