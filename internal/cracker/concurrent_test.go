package cracker

import (
	"math/rand/v2"
	"sync"
	"testing"
)

// TestConcurrentCrackAndRead hammers one index from many goroutines —
// cracking selects, random refinements and aggregations — and checks every
// answer against a naive oracle. Run with -race.
func TestConcurrentCrackAndRead(t *testing.T) {
	const n, domain, gs = 40000, int64(1 << 18), 8
	rng := rand.New(rand.NewPCG(5, 6))
	vals := make([]int64, n)
	rows := make([]uint32, n)
	for i := range vals {
		vals[i] = rng.Int64N(domain)
		rows[i] = uint32(i)
	}
	orig := append([]int64(nil), vals...)
	ix := New(vals, rows)
	ix.SetRadixMinPiece(n / 4) // the first touches scatter, later ones split

	var wg sync.WaitGroup
	errCh := make(chan error, gs)
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			grng := rand.New(rand.NewPCG(uint64(g), 9))
			for i := 0; i < 300; i++ {
				switch i % 3 {
				case 0, 1: // cracking select, by position and by boundary sums
					lo := grng.Int64N(domain)
					hi := lo + grng.Int64N(domain/64) + 1
					var c int
					var s int64
					if i%3 == 0 {
						from, to := ix.CrackRangeConcurrent(lo, hi)
						c, s = ix.CountSumConcurrent(from, to)
					} else {
						c, s = ix.CrackCountSum(lo, hi)
					}
					wc, ws := naiveCountSum(orig, lo, hi)
					if c != wc || s != ws {
						errCh <- &rangeMismatch{lo, hi, c, wc, s, ws}
						return
					}
				case 2: // idle refinement
					ix.RandomCrack(grng)
					lo := grng.Int64N(domain)
					ix.RefineRange(grng, lo, lo+domain/128+1, 0, 1)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	if c, s := ix.CountSum(0, ix.Len()); c != n || s != sumInt64(orig) {
		t.Fatalf("values lost: count %d sum %d, want %d and %d", c, s, n, sumInt64(orig))
	}
	if p := ix.Pieces(); p < gs {
		t.Fatalf("suspiciously few pieces after concurrent storm: %d", p)
	}
}

type rangeMismatch struct {
	lo, hi int64
	c, wc  int
	s, ws  int64
}

func (m *rangeMismatch) Error() string {
	return "concurrent range mismatch"
}

// TestConcurrentCrackSamePivot: many goroutines cracking at the same pivot
// must produce exactly one boundary and no duplicated work.
func TestConcurrentCrackSamePivot(t *testing.T) {
	const n, domain = 10000, int64(1 << 16)
	rng := rand.New(rand.NewPCG(7, 8))
	vals := make([]int64, n)
	rows := make([]uint32, n)
	for i := range vals {
		vals[i] = rng.Int64N(domain)
		rows[i] = uint32(i)
	}
	ix := New(vals, rows)

	var wg sync.WaitGroup
	var cracked sync.Map
	const pivot = domain / 3
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, ok := ix.crackAt(pivot); ok {
				cracked.Store(g, true)
			}
		}(g)
	}
	wg.Wait()

	winners := 0
	cracked.Range(func(_, _ any) bool { winners++; return true })
	if winners != 1 {
		t.Fatalf("%d goroutines think they cracked pivot %d, want exactly 1", winners, pivot)
	}
	if got := ix.Cracks(); got != 1 {
		t.Fatalf("crack counter %d, want 1", got)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLookupRange covers the read-only fast path used by selects on
// already-cracked ranges.
func TestLookupRange(t *testing.T) {
	ix, orig := fuzzSeedIndex(1000, 1<<10)
	if _, _, ok := ix.LookupRange(10, 20); ok {
		t.Fatal("LookupRange hit before any crack")
	}
	from, to := ix.CrackRange(10, 20)
	f2, t2, ok := ix.LookupRange(10, 20)
	if !ok || f2 != from || t2 != to {
		t.Fatalf("LookupRange after crack: %d,%d,%v want %d,%d,true", f2, t2, ok, from, to)
	}
	c, s := ix.CountSumConcurrent(f2, t2)
	wc, ws := naiveCountSum(orig, 10, 20)
	if c != wc || s != ws {
		t.Fatalf("fast path answer %d/%d, oracle %d/%d", c, s, wc, ws)
	}
	if _, _, ok := ix.LookupRange(20, 10); ok {
		t.Fatal("inverted range must miss")
	}
}
