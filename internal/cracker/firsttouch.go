package cracker

import "math/bits"

// NewFromBase builds the values-only cracked copy of a base column whose
// values lie in [lo, hi], narrow when they span less than 2^32 (see
// "Narrow copies"; ref is lo). A base of at least radixMin (> 0) values
// with lo < hi is histogrammed over [lo, hi] and scattered straight into
// the array the index keeps, under the same piece-sized fan-out as a radix
// pass (fanOut: a 4M-value part leaves 2^12 buckets of ~1k values); any
// other base is copied. When lo and hi are the base's own minimum and
// maximum, as the owner's bounds are after a load, that leaves exactly what
// New(copy, nil) plus a whole-column radixPiece leaves (values in order,
// boundaries, sums, tallies), narrow where New's copy is wide. Either way
// base is only read, only lo is kept (as a narrow copy's ref), and the
// index's radix threshold is radixMin. Row ids are not written: AttachRows
// adds them when a delete first needs them.
func NewFromBase(base []int64, lo, hi int64, radixMin int) *Index {
	return NewFromLive(base, nil, lo, hi, radixMin)
}

// NewFromLive is NewFromBase over the live positions of base alone: bit
// i%64 of dead[i/64] marks position i tombstoned (nil: none), and no bit at
// or past len(base) is set. The histogram and the scatter skip tombstoned
// positions as they read base, so the index's array is the build's only
// copy, and the fan-out and threshold follow the live count. The result is
// NewFromBase over LiveValues(base, dead).
func NewFromLive(base []int64, dead []uint64, lo, hi int64, radixMin int) *Index {
	n := liveCount(base, dead)
	ix := &Index{radixMin: radixMin}
	narrow := n > 0 && narrowFits(lo, hi)
	if radixMin <= 0 || n < radixMin || lo >= hi {
		if narrow {
			ix.off, ix.ref = liveCopy[uint32](base, dead, n, lo), lo
		} else {
			ix.vals = liveCopy[int64](base, dead, n, 0)
		}
		return ix
	}
	var g buckets
	count(&g, base, dead, n, lo, hi, 0)
	if narrow { // the array the index keeps
		ix.off, ix.ref = make([]uint32, n), lo
		scatter(&g, base, dead, ix.off, lo)
	} else {
		ix.vals = make([]int64, n)
		scatter(&g, base, dead, ix.vals, 0)
	}
	ix.addBuckets(&g, 0, 0)
	return ix
}

// LiveValues returns a copy of the values of base that dead leaves live (see
// NewFromLive), in base order and exactly as long as their count: the
// multiset a values-only copy of base holds.
func LiveValues(base []int64, dead []uint64) []int64 {
	return liveCopy[int64](base, dead, liveCount(base, dead), 0)
}

// liveCopy is LiveValues, n the live count, with each value less ref.
func liveCopy[D word](base []int64, dead []uint64, n int, ref int64) []D {
	dst := make([]D, n)
	o := 0
	for i, x := range base {
		if !tombstoned(dead, i) && uint(o) < uint(len(dst)) {
			dst[o] = D(x - ref)
			o++
		}
	}
	return dst
}

// liveCount is the number of positions of base that dead leaves live.
func liveCount(base []int64, dead []uint64) int {
	n := len(base)
	for _, w := range dead {
		n -= bits.OnesCount64(w)
	}
	return n
}

// tombstoned reports whether bit i%64 of dead[i/64] is set; positions
// past the bitmap are live.
func tombstoned(dead []uint64, i int) bool {
	w := uint(i) / 64
	return w < uint(len(dead)) && dead[w]&(1<<(uint(i)%64)) != 0
}
