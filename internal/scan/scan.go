// Package scan implements the plain select operator: a full pass over an
// unindexed column evaluating a range predicate. This is the no-indexing
// baseline of the paper ("Scan" in Figure 3 and Table 2) and the operator
// every strategy falls back to for columns without any physical design.
package scan

// b2i returns 1 when b is true, 0 otherwise; the compiler lowers it to a
// flag materialisation (SETcc on amd64), not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// CountSum returns the number and sum of values v with lo <= v < hi.
//
// The inner loop is branch-free: the predicate is materialised as a 0/1 flag
// and folded into the accumulators with mask arithmetic, so selectivities
// near 50% — where a branch would mispredict every other element — cost the
// same as 0% or 100%. The sum doubles as a projection checksum so results
// can be compared across select operator implementations.
func CountSum(vals []int64, lo, hi int64) (count int, sum int64) {
	var c, s int64
	for _, v := range vals {
		in := -int64(b2i(v >= lo) & b2i(v < hi)) // all-ones when v qualifies
		c -= in
		s += v & in
	}
	return int(c), s
}

// MinMax returns the smallest and largest value — of a column, or of a
// narrow cracked copy's uint32 offsets. Ok is false for empty input.
func MinMax[E int64 | uint32](vals []E) (lo, hi E, ok bool) {
	if len(vals) == 0 {
		return 0, 0, false
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi, true
}
