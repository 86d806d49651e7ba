package cracker

// NewFromBase builds the values-only cracked copy of a base column whose
// values lie in [lo, hi]. A base of at least radixMin (> 0) values that is not
// single-valued is histogrammed and scattered straight into the array the
// index keeps, under the same piece-sized fan-out as a radix pass (fanOut),
// leaving exactly what New(copy, nil) plus a whole-column
// radixPiece leaves (array, boundaries, sums, tallies); any other base is
// copied. Either way base is only read, and the index's radix threshold is
// radixMin. Row ids are not written: AttachRows adds them when a delete first
// needs them.
func NewFromBase(base []int64, lo, hi int64, radixMin int) *Index {
	n := len(base)
	ix := &Index{domLo: lo, domHi: hi, radixMin: radixMin}
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
