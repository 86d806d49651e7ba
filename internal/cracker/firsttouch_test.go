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
// below, at and above the threshold, whether it builds narrow (a span
// below 2^32, up to 2^32 − 1 and down at MinInt64) or wide (a span of 2^32
// and more). Neither copy carries row ids until
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
		{"narrow", func(int) int64 { return rng.Int64N(1<<31) - 1<<40 }},
		{"span-2^32-1", func(i int) int64 {
			switch i % 97 {
			case 0:
				return math.MinInt64
			case 1:
				return math.MinInt64 + math.MaxUint32
			}
			return math.MinInt64 + rng.Int64N(math.MaxUint32)
		}},
		{"span-2^32", func(i int) int64 {
			switch i % 97 {
			case 0:
				return -1 << 31
			case 1:
				return 1 << 31
			}
			return rng.Int64N(1<<32) - 1<<31
		}},
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
			if !slices.Equal(got.AppendValues(nil), want.AppendValues(nil)) || got.rows != nil || want.rows != nil {
				t.Fatalf("%s: arrays differ from copy-then-radix, or carry row ids", name)
			}
			if narrow := n > 0 && hi-lo >= 0 && hi-lo <= math.MaxUint32; (got.off != nil) != narrow || want.off != nil {
				t.Fatalf("%s: narrow %v (span %d), want %v; copy-then-radix narrow %v", name, got.off != nil, uint64(hi)-uint64(lo), narrow, want.off != nil)
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

// TestFirstTouchSkipsTombstones holds NewFromLive to NewFromBase over a copy
// of the live values, in base order — array, boundaries, sums and tallies —
// below, at and above the threshold, with the bounds the owner keeps, which
// cover tombstoned values too, over a wide copy and a narrow one (a span
// below 2^32). Tombstones fall at word edges, on the last position, on none
// and on all; the base must not be written.
func TestFirstTouchSkipsTombstones(t *testing.T) {
	const radixMin = 1 << 10
	rng := rand.New(rand.NewPCG(63, 1))
	patterns := []struct {
		name   string
		isDead func(i, n int) bool
	}{
		{"none", func(int, int) bool { return false }},
		{"all", func(int, int) bool { return true }},
		{"edges", func(i, n int) bool { return i%64 == 0 || i%64 == 63 || i == n-1 }},
		{"one-fifth", func(int, int) bool { return rng.IntN(5) == 0 }},
	}
	for _, cs := range []struct {
		n      int
		domain int64
	}{{0, 1 << 40}, {1, 1 << 40}, {radixMin - 1, 1 << 40}, {radixMin + 1, 1 << 40}, {5 * radixMin / 4, 1 << 40}, {4*radixMin + 7, 1 << 40},
		{radixMin - 1, 1 << 31}, {4*radixMin + 7, 1 << 31}} {
		n := cs.n
		for _, pat := range patterns {
			base := make([]int64, n)
			dead := make([]uint64, (n+63)/64)
			var live []int64
			for i := range base {
				base[i] = rng.Int64N(cs.domain)
				if pat.isDead(i, n) {
					dead[i/64] |= 1 << (i % 64)
				} else {
					live = append(live, base[i])
				}
			}
			pristine := slices.Clone(base)
			var lo, hi int64
			if n > 0 {
				lo, hi = slices.Min(base), slices.Max(base)
			}
			got := NewFromLive(base, dead, lo, hi, radixMin)
			want := NewFromBase(live, lo, hi, radixMin)
			id := fmt.Sprintf("n=%d/domain=%d/%s", n, cs.domain, pat.name)
			if !slices.Equal(base, pristine) {
				t.Fatalf("%s: the base was written", id)
			}
			if !slices.Equal(got.AppendValues(nil), want.AppendValues(nil)) || cap(got.vals)+cap(got.off) != len(live) {
				t.Fatalf("%s: array differs from NewFromBase over the live copy, or has slack", id)
			}
			if gb, wb := boundaries(got), boundaries(want); !slices.Equal(gb, wb) {
				t.Fatalf("%s: boundaries %v, want %v", id, gb, wb)
			}
			if got.Cracks() != want.Cracks() || got.Work() != want.Work() {
				t.Fatalf("%s: cracks/work %d/%d, want %d/%d", id, got.Cracks(), got.Work(), want.Cracks(), want.Work())
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
		}
	}
}
