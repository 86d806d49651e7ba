package cracker

// NewFromBase builds the values-only cracked copy of a base column whose
// values lie in [lo, hi]. A base of at least radixMin (> 0) values with
// lo < hi is histogrammed over [lo, hi] and scattered straight into the
// array the index keeps, under the same piece-sized fan-out as a radix pass
// (fanOut); any other base is copied. When lo and hi are the base's own
// minimum and maximum, as the owner's bounds are after a load, that leaves
// exactly what New(copy, nil) plus a whole-column radixPiece leaves (array,
// boundaries, sums, tallies). Either way base is only read, the bounds are
// not kept, and the index's radix threshold is radixMin. Row ids are not
// written: AttachRows adds them when a delete first needs them.
func NewFromBase(base []int64, lo, hi int64, radixMin int) *Index {
	n := len(base)
	ix := &Index{radixMin: radixMin}
	ix.vals = make([]int64, n) // the array the index keeps
	if radixMin <= 0 || n < radixMin || lo >= hi {
		copy(ix.vals, base)
		return ix
	}
	var g buckets
	g.count(base, lo, hi)
	g.scatter(base, ix.vals)
	ix.addBuckets(&g, 0, 0)
	return ix
}
