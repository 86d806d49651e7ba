package cracker

// NewFromBase builds the cracked copy of a base column whose value i has row
// id row0 + i*stride (wrapping) and whose values lie in [lo, hi]. A base of
// at least radixMin (> 0) values that is not single-valued is histogrammed
// and scattered straight into the arrays the index keeps, leaving exactly
// what New plus a whole-column radixPiece leaves (arrays, boundaries, sums,
// tallies); any other base is copied. Either way base is only read, and the
// index's radix threshold is radixMin.
func NewFromBase(base []int64, row0, stride uint32, lo, hi int64, radixMin int) *Index {
	n := len(base)
	ix := &Index{domLo: lo, domHi: hi, radixMin: radixMin}
	if radixMin <= 0 || n < radixMin || lo >= hi {
		vals, rows := make([]int64, n), make([]uint32, n)
		copy(vals, base)
		for i := range rows {
			rows[i] = row0 + uint32(i)*stride
		}
		ix.vals, ix.rows = vals, rows
		return ix
	}
	var g buckets
	g.count(base, lo, hi)
	// radixPiece's scatter, with the row ids computed instead of read.
	bv, br := make([]int64, n), make([]uint32, n) // the arrays the index keeps
	cur, shift, row := g.starts, g.shift, row0    // starts stays pristine for addBuckets
	for _, x := range base {
		bkt := ((uint64(x) - uint64(lo)) >> shift) & (1<<radixBits - 1)
		o := cur[bkt]
		if uint(o) < uint(len(bv)) && uint(o) < uint(len(br)) {
			bv[o] = x
			br[o] = row
		}
		cur[bkt] = o + 1
		row += stride
	}
	ix.vals, ix.rows = bv, br
	ix.addBuckets(&g, 0, 0)
	return ix
}
