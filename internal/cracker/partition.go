package cracker

// The predicated (branch-free) partition kernel — the innermost loop every
// select, merge and idle refinement funnels through, and the whole of what a
// crack does while it holds its piece's latch.
//
// The seed's Hoare-style loops branched on every comparison; with a random
// pivot over unsorted data each branch is a coin flip, so the partition paid
// a misprediction stall roughly every other element. Following "Main Memory
// Adaptive Indexing for Multi-core Systems" (Alvarez, Schuhknecht, Dittrich,
// Richter, DaMoN 2014), the comparison becomes a materialised 0/1 flag and
// every iteration executes the same instructions.
//
// Predication alone was not enough: a two-cursor predicated loop advances
// both cursors by flags computed from the values just loaded AT those
// cursors, so each step's load addresses wait for the previous step's load,
// compare and add — a ~10-cycle latency chain per value, longer off the
// median. The loop below has one read cursor, right, that walks the piece
// front to back whatever the data says, so its loads run ahead at memory
// speed, and one write cursor, left, the count of values < pivot so far: each
// element is exchanged with v[left] and left advances by the flag, leaving a
// one-cycle add as the only loop-carried dependency, at any pivot position.
// v[left:right] holds the values >= pivot met so far; the order of values
// WITHIN a side is unspecified and nothing may rely on it.
//
// The low side's wrapping sum is folded into the sweep (the value masked by
// the negated flag; measured free): every crack seeds its new boundary's
// prefix sum with it. Nothing in here allocates.
//
// Bounds-check elimination is part of the file's contract: CI compiles this
// file with -gcflags='-d=ssa/check_bce' and fails if any check appears. The
// loop runs over zero-based views of equal length, and one never-taken guard
// states the cursor invariant for the prove pass.

// b2i returns 1 when b is true, 0 otherwise. The compiler lowers the
// conditional to a flag materialisation (SETcc on amd64), not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// partition2 reorders vals[a:b] (and rows in lockstep, unless rows is nil:
// a values-only copy) so that values < pivot precede values >= pivot,
// returning the split position and the wrapping sum of the values below it.
// Branch-free: the loop body is identical whichever side a value belongs to.
func partition2(vals []int64, rows []uint32, a, b int, pivot int64) (m int, sumLow int64) {
	if rows == nil {
		return partition2Vals(vals, a, b, pivot)
	}
	// The caller always passes a valid piece (0 <= a <= b <= len); spelling
	// the comparisons out lets the prove pass discharge the slice ops below.
	if a < 0 || a >= b || b > len(vals) || b > len(rows) {
		return a, 0
	}
	v := vals[a:b]
	r := rows[a:b]
	if len(r) != len(v) {
		return a, 0 // unreachable: both are b-a long; BCE only
	}
	left := 0
	for right, rv := range v {
		if uint(left) > uint(right) {
			break // unreachable: left advances at most once per step; BCE only
		}
		rr := r[right]
		v[right], r[right] = v[left], r[left]
		v[left], r[left] = rv, rr
		lt := b2i(rv < pivot)
		left += lt
		sumLow += rv & -int64(lt)
	}
	return a + left, sumLow
}

// partition2Vals is partition2 over a values-only copy: the same exchange
// without the row array, so each step moves 16 bytes instead of 24.
//
// Each step also stores its flag into a small ring on the stack that
// nothing needs. Measured on a 2-vCPU Intel Xeon (family 6, model 207) over
// 2^17 shuffled values, the loop whose only stores are the exchange's two
// runs at ~3 ns a value whatever the pivot; with the third store it runs at
// ~1.2 ns, where the lockstep loop, whose row stores sit in the same place,
// runs at ~1.6 ns. The ring is read once after the loop, so the compiler
// keeps the stores.
func partition2Vals(vals []int64, a, b int, pivot int64) (m int, sumLow int64) {
	if a < 0 || a >= b || b > len(vals) {
		return a, 0
	}
	v := vals[a:b]
	var ring [256]uint8
	left := 0
	for right, rv := range v {
		if uint(left) > uint(right) {
			break
		}
		v[right] = v[left]
		v[left] = rv
		lt := b2i(rv < pivot)
		ring[right&255] = uint8(lt)
		left += lt
		sumLow += rv & -int64(lt)
	}
	if ring[(len(v)-1)&255] > 1 {
		return a, 0 // unreachable: a flag is 0 or 1
	}
	return a + left, sumLow
}

// partition3 reorders vals[a:b] into three bands: < lo, [lo, hi), >= hi,
// returning the two split positions (m1 = start of middle, m2 = start of the
// high band) and the wrapping sums of the low and middle bands. Alvarez et
// al. observe that two predicated two-way passes are faster than one branchy
// three-way pass, so crack-in-three is exactly that: split on lo, then split
// the upper band on hi.
func partition3(vals []int64, rows []uint32, a, b int, lo, hi int64) (m1, m2 int, sumLow, sumMid int64) {
	m1, sumLow = partition2(vals, rows, a, b, lo)
	m2, sumMid = partition2(vals, rows, m1, b, hi)
	return m1, m2, sumLow, sumMid
}
