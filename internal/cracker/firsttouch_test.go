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

// TestFirstTouchMatchesCopyThenRadix holds NewFromBase to the three steps it
// fuses — a snapshot copy with strided row ids, New, and a whole-column
// radixPiece when the base reaches the threshold — value for value, row for
// row, boundary for boundary, below, at and above the threshold.
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
		for _, stride := range []uint32{1, 3, 8} {
			for _, sh := range shapes {
				name := fmt.Sprintf("n=%d/stride=%d/%s", n, stride, sh.name)
				base := make([]int64, n)
				for i := range base {
					base[i] = sh.gen(i)
				}
				pristine := slices.Clone(base)
				row0 := uint32(rng.IntN(int(stride)))
				var lo, hi int64
				if n > 0 {
					lo, hi = slices.Min(base), slices.Max(base)
				}
				got := NewFromBase(base, row0, stride, lo, hi, radixMin)

				rows := make([]uint32, n)
				for i := range rows {
					rows[i] = row0 + uint32(i)*stride
				}
				want := New(slices.Clone(base), rows)
				want.SetRadixMinPiece(radixMin)
				if n >= radixMin {
					want.radixPiece(0, n)
				}

				if !slices.Equal(base, pristine) {
					t.Fatalf("%s: the base was written", name)
				}
				if !slices.Equal(got.vals, want.vals) || !slices.Equal(got.rows, want.rows) {
					t.Fatalf("%s: arrays differ from copy-then-radix", name)
				}
				if gb, wb := boundaries(got), boundaries(want); !slices.Equal(gb, wb) {
					t.Fatalf("%s: boundaries %v, want %v", name, gb, wb)
				}
				if got.Cracks() != want.Cracks() || got.Work() != want.Work() || got.radixMin != want.radixMin {
					t.Fatalf("%s: cracks/work/radixMin %d/%d/%d, want %d/%d/%d", name,
						got.Cracks(), got.Work(), got.radixMin, want.Cracks(), want.Work(), want.radixMin)
				}
				if got.domLo != want.domLo || got.domHi != want.domHi {
					t.Fatalf("%s: domain %d,%d, want %d,%d", name, got.domLo, got.domHi, want.domLo, want.domHi)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
	}
}
