package cracker

import "math/bits"

// NewFromBase builds the values-only cracked copy of a base column whose
// values lie in [lo, hi]. A base of at least radixMin (> 0) values with
// lo < hi is histogrammed over [lo, hi] and scattered straight into the
// array the index keeps, under the same piece-sized fan-out as a radix pass
// (fanOut: a 4M-value part leaves 2^12 buckets of ~1k values); any other
// base is copied. When lo and hi are the base's own minimum and maximum, as
// the owner's bounds are after a load, that leaves exactly what
// New(copy, nil) plus a whole-column radixPiece leaves (array, boundaries,
// sums, tallies). Either way base is only read, the bounds are not kept,
// and the index's radix threshold is radixMin. Row ids are not written:
// AttachRows adds them when a delete first needs them.
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
	if radixMin <= 0 || n < radixMin || lo >= hi {
		return &Index{vals: LiveValues(base, dead), radixMin: radixMin}
	}
	ix := &Index{vals: make([]int64, n), radixMin: radixMin} // the array the index keeps
	var g buckets
	g.count(base, dead, n, lo, hi)
	g.scatter(base, dead, ix.vals)
	ix.addBuckets(&g, 0, 0)
	return ix
}

// LiveValues returns a copy of the values of base that dead leaves live (see
// NewFromLive), in base order and exactly as long as their count: the
// multiset a values-only copy of base holds.
func LiveValues(base []int64, dead []uint64) []int64 {
	vals := make([]int64, liveCount(base, dead))
	if len(vals) == len(base) {
		copy(vals, base)
		return vals
	}
	o := 0
	for i, x := range base {
		if !tombstoned(dead, i) && uint(o) < uint(len(vals)) {
			vals[o] = x
			o++
		}
	}
	return vals
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
