package cracker

// Radix-first coarse cracking.
//
// Comparison cracking splits a piece in two per touch, so a large cold piece
// needs ~log2(n/target) touches — each a full sweep of the piece — before
// queries stop paying for reorganisation. Following "Main Memory Adaptive
// Indexing for Multi-core Systems" (Alvarez et al., DaMoN 2014), the first
// touch of a large cold piece instead pays ONE out-of-place pass that
// scatters the piece into radix buckets on the high bits of the value range,
// and registers every bucket boundary as a crack-tree piece. Subsequent
// queries comparison-crack within a bucket as usual — the radix pass replaces
// the first ~log2(buckets) comparison sweeps with two sequential passes
// (histogram + scatter) over the same data.
//
// The fan-out is sized to the piece: enough bits that a uniform piece leaves
// buckets of about radixBucket values, between radixMinBits and
// radixMaxBits (fanOut). A 4M-value part gets 2^11 buckets of ~2k values,
// a piece at the default threshold (2^17) gets 2^6.
//
// Bucket keys are derived from the piece's OWN data min/max, read in one
// pass before the histogram, not from the piece's key interval or a column
// domain: merged updates drift the domain, a piece's interval in the crack
// tree is open at the extremes, and either can be far wider than the data,
// so the data itself is the only tight range. Because every bucket boundary
// is inserted — including empty buckets — each level divides the value span
// by at least 2^radixMinBits, so repeated radix passes over still-large
// buckets terminate in at most ceil(64/radixMinBits) levels even on
// maximally skewed data, and a bucket holding one value ends its descent at
// once. An empty bucket is a zero-size piece whose start collides with its
// right neighbour's.
//
// A pass scatters into freshly allocated arrays: a pass over the whole column
// keeps them as the index arrays, any other pass copies back. No workload
// reaches the second kind: the engine's first touch of a loaded part is not a
// crack but NewFromBase (firsttouch.go), a build that shares this file's
// bucket plan and keeps the arrays it scatters into, and it leaves pieces
// below the radix threshold.

import (
	"math/bits"

	"holistic/internal/scan"
)

// The fan-out of one coarse pass, in bits (see fanOut).
const (
	// radixBucket is the bucket size a pass aims at: 2^11 values, 16 KB,
	// inside L1d, where one comparison crack partitions a bucket in a few µs.
	radixBucket = 1 << 11
	// radixMaxBits caps the fan-out at 2^11 buckets. Histogram plus scatter
	// of 2^22 values into a fresh array (BenchmarkRadixFanOut, 2-vCPU Xeon)
	// costs 0–20 % more at 11 bits than at 8, and 25–65 % more at 12.
	radixMaxBits = 11
	// radixMinBits floors the fan-out of a small piece, so every level of a
	// pass at least quarters the value span.
	radixMinBits = 2
)

// fanOut returns the bit width of a pass over n values:
// clamp(ceil(log2(n/radixBucket)), radixMinBits, radixMaxBits).
func fanOut(n int) int {
	w := 0
	if n > radixBucket {
		w = bits.Len64(uint64(n-1) / radixBucket) // ceil(log2(n/radixBucket))
	}
	return min(max(w, radixMinBits), radixMaxBits)
}

// SetRadixMinPiece sets the piece-size threshold above which a crack touch
// runs a radix-first coarse pass instead of a comparison split. n <= 0
// disables radix-first cracking (the default for a bare New).
func (ix *Index) SetRadixMinPiece(n int) { ix.radixMin = n }

// radixPiece scatters the piece [a, b), whose prefix sum is below, into
// value-ordered radix buckets and registers the bucket boundaries, returning
// the number of boundaries inserted (0 when the piece is single-valued and
// cannot be split). The buckets span the piece's own min and max (see the
// file comment). The caller holds the piece's stripe (see crack), or the
// structure latch exclusively for a pass over the whole copy, which replaces
// the arrays: no reader can be inside them then.
func (ix *Index) radixPiece(a, b int, below int64) int {
	if a < 0 || a >= b || b > len(ix.vals) {
		return 0
	}
	v := ix.vals[a:b]
	lo, hi, _ := scan.MinMax(v)
	if lo >= hi {
		return 0
	}
	var g buckets
	g.count(v, lo, hi)

	// Out-of-place scatter. A pass over the whole column keeps its
	// destination as the index arrays — the copy-back, the single largest
	// slice of the pass's memory traffic, disappears. Every other pass copies
	// back. A values-only copy scatters values alone.
	whole := a == 0 && b == len(ix.vals)
	bv := make([]int64, len(v))
	var br []uint32
	if rows := ix.rows; rows == nil {
		g.scatter(v, bv)
	} else {
		if b > len(rows) {
			return 0 // unreachable: rows is as long as vals; BCE only
		}
		r := rows[a:b]
		br = make([]uint32, len(v))
		g.scatterRows(v, r, bv, br)
		if !whole {
			copy(r, br)
		}
	}
	if whole {
		ix.tmu.lock() // a lookup reads the arrays' length under it alone
		ix.vals, ix.rows = bv, br
		ix.tmu.Unlock()
	} else {
		copy(v, bv)
	}
	return ix.addBuckets(&g, a, below)
}

// scatter writes v into dst bucket by bucket under plan g, which count made
// over v; dst is len(v) long. starts stays pristine for addBuckets.
func (g *buckets) scatter(v, dst []int64) {
	cur, lo, shift := g.starts, g.lo, g.shift
	for _, x := range v {
		bkt := ((uint64(x) - uint64(lo)) >> shift) & (1<<radixMaxBits - 1)
		o := cur[bkt]
		if uint(o) < uint(len(dst)) {
			dst[o] = x
		}
		cur[bkt] = o + 1
	}
}

// scatterRows is scatter with row ids r moved to dr in lockstep.
func (g *buckets) scatterRows(v []int64, r []uint32, dv []int64, dr []uint32) {
	if len(r) < len(v) {
		return // unreachable: both are the piece's length; BCE only
	}
	cur, lo, shift := g.starts, g.lo, g.shift
	for i, x := range v {
		bkt := ((uint64(x) - uint64(lo)) >> shift) & (1<<radixMaxBits - 1)
		o := cur[bkt]
		if uint(o) < uint(len(dv)) && uint(o) < uint(len(dr)) {
			dv[o] = x
			dr[o] = r[i]
		}
		cur[bkt] = o + 1
	}
}

// buckets is one radix pass's plan over values in [lo, hi]: bucket k holds
// exactly the values in [lo + k<<shift, lo + (k+1)<<shift), the first nb of
// which can be non-empty; it starts at offset starts[k] of the scattered
// piece, and its values add to sum[k].
type buckets struct {
	lo     int64
	shift  uint
	nb     int
	starts [1<<radixMaxBits + 1]int
	sum    [1 << radixMaxBits]int64
}

// count plans buckets for values in [lo, hi], lo < hi, and runs the histogram
// pass over v. shift is chosen so the largest bucket index fits in
// fanOut(len(v)) bits; all arithmetic is uint64, as hi-lo overflows int64
// when the values span most of the int64 range. The arrays are sized for
// radixMaxBits whatever the fan-out, so the mask to radixMaxBits bits is
// redundant but lets the compiler drop the bounds check in the hot loop, and
// locals keep the loop from re-reading lo and shift through g after every
// store.
func (g *buckets) count(v []int64, lo, hi int64) {
	span := uint64(hi) - uint64(lo)
	shift := uint(0)
	if w, fb := bits.Len64(span), fanOut(len(v)); w > fb {
		shift = uint(w - fb)
	}
	g.lo, g.shift, g.nb = lo, shift, int(span>>shift)+1
	var hist [1 << radixMaxBits]int
	var sum [1 << radixMaxBits]int64
	for _, x := range v {
		bkt := ((uint64(x) - uint64(lo)) >> shift) & (1<<radixMaxBits - 1)
		hist[bkt]++
		sum[bkt] += x
	}
	at := 0 // buckets from nb on are empty: their starts are all len(v)
	for k, h := range hist {
		g.starts[k] = at
		at += h
	}
	g.starts[1<<radixMaxBits], g.sum = at, sum
}

// addBuckets registers every bucket boundary of a piece scattered to position
// a under plan g — empty buckets included, so the crack-tree invariant (key ->
// first position with value >= key) holds for them too — and tallies the
// pass, returning the boundaries inserted. All keys lie strictly inside the
// piece's open value interval, so none collides with an existing boundary.
// Bucket k's sum is below, the sum below the piece, plus the buckets below k.
// It takes the tree latch exclusively.
func (ix *Index) addBuckets(g *buckets, a int, below int64) int {
	ix.tmu.lock()
	defer ix.tmu.Unlock()
	inserted := 0
	for k := 1; k < g.nb && k < 1<<radixMaxBits; k++ {
		key := g.lo + int64(uint64(k)<<g.shift)
		below += g.sum[k-1]
		if ix.tree.Insert(key, a+g.starts[k], below) {
			inserted++
		}
	}
	ix.cracks.Add(int64(inserted))
	ix.work.Add(int64(2 * g.starts[1<<radixMaxBits])) // histogram pass + scatter pass
	return inserted
}
