package cracker

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// boundaries lists the crack tree's (key, position, sum) triples in key order.
func boundaries(ix *Index) [][3]int64 {
	var out [][3]int64
	ix.tree.Walk(func(key int64, pos int, sum int64) bool {
		out = append(out, [3]int64{key, int64(pos), sum})
		return true
	})
	return out
}

// TestFirstTouchMatchesCopyThenRadix holds NewFromBase to the steps it
// fuses — a values-only copy, New, and a whole-column radixPiece when the
// base reaches the threshold — value for value and boundary for boundary,
// below, at and above the threshold. Neither copy carries row ids until
// AttachRows gives both the same strided ones.
func TestFirstTouchMatchesCopyThenRadix(t *testing.T) {
	const radixMin = 1 << 10
	rng := rand.New(rand.NewPCG(27, 1))
	shapes := []struct {
		name string
		gen  func(i int) int64
	}{
		{"uniform", func(int) int64 { return rng.Int64N(1 << 40) }},
		{"single-valued", func(int) int64 { return -7 }},
		{"int64-spanning", func(i int) int64 {
			switch i % 97 {
			case 0:
				return math.MinInt64
			case 1:
				return math.MaxInt64
			}
			return int64(rng.Uint64())
		}},
	}
	for _, n := range []int{0, 1, radixMin - 1, radixMin, radixMin + 1, 2 * radixMin, 3*radixMin + 7} {
		for _, sh := range shapes {
			name := fmt.Sprintf("n=%d/%s", n, sh.name)
			base := make([]int64, n)
			for i := range base {
				base[i] = sh.gen(i)
			}
			pristine := slices.Clone(base)
			var lo, hi int64
			if n > 0 {
				lo, hi = slices.Min(base), slices.Max(base)
			}
			got := NewFromBase(base, lo, hi, radixMin)

			want := New(slices.Clone(base), nil)
			want.SetRadixMinPiece(radixMin)
			if n >= radixMin {
				want.radixPiece(0, n, 0)
			}

			if !slices.Equal(base, pristine) {
				t.Fatalf("%s: the base was written", name)
			}
			if !slices.Equal(got.vals, want.vals) || got.rows != nil || want.rows != nil {
				t.Fatalf("%s: arrays differ from copy-then-radix, or carry row ids", name)
			}
			if gb, wb := boundaries(got), boundaries(want); !slices.Equal(gb, wb) {
				t.Fatalf("%s: boundaries %v, want %v", name, gb, wb)
			}
			if got.Cracks() != want.Cracks() || got.Work() != want.Work() || got.radixMin != want.radixMin {
				t.Fatalf("%s: cracks/work/radixMin %d/%d/%d, want %d/%d/%d", name,
					got.Cracks(), got.Work(), got.radixMin, want.Cracks(), want.Work(), want.radixMin)
			}
			for _, stride := range []uint32{1, 3, 8} {
				row0 := uint32(rng.IntN(int(stride)))
				ix := NewFromBase(base, lo, hi, radixMin)
				if err := ix.AttachRows(base, row0, stride, nil); err != nil {
					t.Fatalf("%s/stride=%d: %v", name, stride, err)
				}
				for i, r := range ix.rows {
					if k := (r - row0) / stride; base[k] != ix.vals[i] {
						t.Fatalf("%s/stride=%d: row %d holds %d, the base %d", name, stride, r, ix.vals[i], base[k])
					}
				}
				if gb, wb := boundaries(ix), boundaries(want); !slices.Equal(gb, wb) {
					t.Fatalf("%s/stride=%d: attach moved boundaries", name, stride)
				}
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}
