package cracker

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// buildRadixIndex returns an index over n pseudo-random values with
// radix-first cracking enabled at threshold minPiece, plus a pristine copy of
// the values for oracle checks.
func buildRadixIndex(n, minPiece int, seed uint64) (*Index, []int64) {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	vals := make([]int64, n)
	rows := make([]uint32, n)
	for i := range vals {
		vals[i] = rng.Int64N(1 << 40)
		rows[i] = uint32(i)
	}
	orig := append([]int64(nil), vals...)
	ix := New(vals, rows)
	ix.SetRadixMinPiece(minPiece)
	return ix, orig
}

func oracleCountSum(vals []int64, lo, hi int64) (int, int64) {
	c, s := 0, int64(0)
	for _, v := range vals {
		if v >= lo && v < hi {
			c++
			s += v
		}
	}
	return c, s
}

func TestRadixFirstCrackRange(t *testing.T) {
	const n = 1 << 16
	ix, orig := buildRadixIndex(n, 1<<12, 42)
	rng := rand.New(rand.NewPCG(7, 11))
	for q := 0; q < 200; q++ {
		lo := rng.Int64N(1 << 40)
		hi := lo + rng.Int64N(1<<38) + 1
		from, to := ix.CrackRange(lo, hi)
		wc, ws := oracleCountSum(orig, lo, hi)
		gc, gs := ix.CountSum(from, to)
		if gc != wc || gs != ws {
			t.Fatalf("query %d [%d,%d): got count=%d sum=%d, want count=%d sum=%d", q, lo, hi, gc, gs, wc, ws)
		}
		if err := ix.Validate(); err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
	}
	if ix.Pieces() < 256 {
		t.Fatalf("radix-first produced only %d pieces; coarse pass did not run", ix.Pieces())
	}
}

func TestRadixSkewedAndDuplicates(t *testing.T) {
	// Heavy skew plus duplicate runs: exercises empty buckets and the
	// termination argument (span shrinks per level even when sizes do not).
	const n = 1 << 14
	rng := rand.New(rand.NewPCG(3, 5))
	vals := make([]int64, n)
	rows := make([]uint32, n)
	for i := range vals {
		switch rng.IntN(3) {
		case 0:
			vals[i] = rng.Int64N(16) // dense duplicates at the bottom
		case 1:
			vals[i] = 1 << 50 // one huge outlier value, many copies
		default:
			vals[i] = rng.Int64N(1 << 20)
		}
		rows[i] = uint32(i)
	}
	orig := append([]int64(nil), vals...)
	ix := New(vals, rows)
	ix.SetRadixMinPiece(64)
	for q := 0; q < 100; q++ {
		lo := rng.Int64N(1 << 21)
		hi := lo + rng.Int64N(1<<20) + 1
		from, to := ix.CrackRange(lo, hi)
		wc, ws := oracleCountSum(orig, lo, hi)
		if gc, gs := ix.CountSum(from, to); gc != wc || gs != ws {
			t.Fatalf("query %d [%d,%d): got count=%d sum=%d, want count=%d sum=%d", q, lo, hi, gc, gs, wc, ws)
		}
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRadixConcurrentMatchesOracle(t *testing.T) {
	const n = 1 << 15
	ix, orig := buildRadixIndex(n, 1<<10, 99)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(seed uint64) {
			rng := rand.New(rand.NewPCG(seed, seed*3))
			for q := 0; q < 50; q++ {
				lo := rng.Int64N(1 << 40)
				hi := lo + rng.Int64N(1<<38) + 1
				from, to := ix.CrackRangeConcurrent(lo, hi)
				wc, ws := oracleCountSum(orig, lo, hi)
				if gc, gs := ix.CountSumConcurrent(from, to); gc != wc || gs != ws {
					done <- fmt.Errorf("goroutine seed %d query %d: got count=%d sum=%d, want count=%d sum=%d", seed, q, gc, gs, wc, ws)
					return
				}
			}
			done <- nil
		}(uint64(g + 1))
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRadixFirstTouchKeepsNoSlack: the whole-column pass keeps the arrays it
// scattered into as the index arrays, so any capacity beyond the column's
// length would be carried for life. Whatever the length, the first crack
// must leave the arrays exactly as long as the column — and so must the build
// that scatters straight from a base column (NewFromBase).
func TestRadixFirstTouchKeepsNoSlack(t *testing.T) {
	for _, n := range []int{1<<12 + 1, 3 << 11, 1 << 12} {
		ix, orig := buildRadixIndex(n, 1<<10, uint64(n))
		fused := NewFromBase(orig, slices.Min(orig), slices.Max(orig), 1<<10)
		for _, ix := range []*Index{ix, fused} {
			from, to := ix.CrackRange(1<<38, 1<<39)
			wc, ws := oracleCountSum(orig, 1<<38, 1<<39)
			if gc, gs := ix.CountSum(from, to); gc != wc || gs != ws {
				t.Fatalf("n=%d: got count=%d sum=%d, want count=%d sum=%d", n, gc, gs, wc, ws)
			}
			if ix.Pieces() < 256 {
				t.Fatalf("n=%d: %d pieces; the coarse pass did not run", n, ix.Pieces())
			}
			if cv, cr := cap(ix.Values()), cap(ix.Rows()); cv != ix.Len() || (ix.Rows() != nil && cr != ix.Len()) {
				t.Fatalf("n=%d: after the first crack cap(vals)=%d cap(rows)=%d, want %d", n, cv, cr, ix.Len())
			}
			if err := ix.Validate(); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
	}
}
