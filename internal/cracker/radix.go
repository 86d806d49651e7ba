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
// radixMaxBits (fanOut). A 4M-value part gets 2^12 buckets of ~1k values,
// a piece at the default threshold (2^17) gets 2^7. The bucket size is what
// an early select pays: each of its bounds partitions the bucket it falls
// in. The fan-out is what the pass pays: its scatter writes one stream per
// bucket. The constants trade the two.
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
// A pass scatters into freshly allocated arrays and copies back, under its
// piece's stripe like any other crack; over a narrow copy it buckets and
// scatters the offsets, at the copy's width. No workload reaches it: a part's
// first touch is not a crack but NewFromLive (firsttouch.go), a build that
// shares this file's bucket plan and keeps the array it scatters into, and
// it leaves pieces below the radix threshold.

import (
	"math/bits"

	"holistic/internal/scan"
)

// The fan-out of one coarse pass, in bits (see fanOut).
const (
	// radixBucket is the bucket size a pass aims at: 2^10 values, 8 KB. A
	// select partitions the bucket each bound falls in, and the vector
	// kernel partitions at what it reads from L3 (~0.57 ns a value), so
	// halving the bucket halves a cold select's crack.
	radixBucket = 1 << 10
	// radixMaxBits caps the fan-out at 2^12 buckets, the most a 4M-value
	// part needs. The first touch pays for it: histogram plus scatter of
	// 2^22 values costs ~20 % more at 12 bits than at 11, and ~40 % more
	// than at 8 (BenchmarkRadixFanOut, 2-vCPU Xeon). Halving the bucket
	// again, at 13 bits, would leave a 300k-value column in buckets barely
	// above a 256-value idle target, so idle refinement would have nothing
	// left to save its selects.
	radixMaxBits = 12
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
// file comment). The caller holds the piece's stripe (see crack).
func (ix *Index) radixPiece(a, b int, below int64) int {
	var g buckets
	var split bool
	switch {
	case ix.off != nil:
		split = radixValues(&g, ix.off, a, b, ix.ref)
	case ix.rows == nil:
		split = radixValues(&g, ix.vals, a, b, 0)
	default:
		split = radixRows(&g, ix.vals, ix.rows, a, b)
	}
	if !split {
		return 0
	}
	return ix.addBuckets(&g, a, below)
}

// radixValues plans g over the values-only piece [a, b) of the copy all,
// whose values are ref + all[i], scatters it out of place and copies it
// back. It reports false, and moves nothing, when the piece is empty or
// single-valued.
func radixValues[E word](g *buckets, all []E, a, b int, ref int64) bool {
	if a < 0 || a >= b || b > len(all) {
		return false
	}
	v := all[a:b]
	lo, hi, _ := scan.MinMax(v)
	if lo >= hi {
		return false
	}
	count(g, v, nil, len(v), lo, hi, ref)
	bv := make([]E, len(v))
	scatter(g, v, nil, bv, 0)
	copy(v, bv)
	return true
}

// radixRows is radixValues over a wide copy with its row ids.
func radixRows(g *buckets, vals []int64, rows []uint32, a, b int) bool {
	if a < 0 || a >= b || b > len(vals) || b > len(rows) {
		return false
	}
	v, r := vals[a:b], rows[a:b]
	lo, hi, _ := scan.MinMax(v)
	if lo >= hi {
		return false
	}
	count(g, v, nil, len(v), lo, hi, 0)
	bv, br := make([]int64, len(v)), make([]uint32, len(v))
	g.scatterRows(v, r, bv, br)
	copy(v, bv)
	copy(r, br)
	return true
}

// scatter writes the values of v that dead leaves live into dst bucket by
// bucket under plan g, which count made over them, each less ref (to
// offsets from ref when dst is narrow; 0 keeps them as they are); dst holds
// exactly as many. starts stays pristine for addBuckets.
func scatter[S, D word](g *buckets, v []S, dead []uint64, dst []D, ref int64) {
	cur, from, shift := g.starts, g.from, g.shift
	for i, x := range v {
		if tombstoned(dead, i) {
			continue
		}
		bkt := ((uint64(x) - from) >> shift) & (1<<radixMaxBits - 1)
		o := cur[bkt]
		if uint(o) < uint(len(dst)) {
			dst[o] = D(int64(x) - ref)
		}
		cur[bkt] = o + 1
	}
}

// scatterRows is scatter over wide values with row ids r moved to dr in
// lockstep.
func (g *buckets) scatterRows(v []int64, r []uint32, dv []int64, dr []uint32) {
	if len(r) < len(v) {
		return // unreachable: both are the piece's length; BCE only
	}
	cur, from, shift := g.starts, g.from, g.shift
	for i, x := range v {
		bkt := ((uint64(x) - from) >> shift) & (1<<radixMaxBits - 1)
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
// piece, and its values add to sum[k]. from is lo as the scattered
// elements hold it, an offset in a narrow copy: element x goes to bucket
// (x − from) >> shift.
type buckets struct {
	lo     int64
	from   uint64
	shift  uint
	nb     int
	starts [1<<radixMaxBits + 1]int
	sum    [1 << radixMaxBits]int64
}

// count plans buckets for the n elements of v in [lo, hi], lo < hi, each
// the value ref + x, and runs the histogram pass over them; a position of v
// that dead marks tombstoned (see NewFromLive; nil: none) is not one of
// them. shift is chosen so the largest bucket index fits in fanOut(n) bits;
// all arithmetic is uint64, as hi-lo overflows int64 when the values span
// most of the int64 range. The arrays are sized for radixMaxBits whatever
// the fan-out, so the mask to radixMaxBits bits is redundant but lets the
// compiler drop the bounds check in the hot loop, and locals keep the loop
// from re-reading lo and shift through g after every store. A bucket's
// count and sum share one 16-byte entry, so an element updates one cache
// line, not two.
func count[E word](g *buckets, v []E, dead []uint64, n int, lo, hi E, ref int64) {
	from := uint64(lo)
	span := uint64(hi) - from
	shift := uint(0)
	if w, fb := bits.Len64(span), fanOut(n); w > fb {
		shift = uint(w - fb)
	}
	g.lo, g.from, g.shift, g.nb = int64(lo)+ref, from, shift, int(span>>shift)+1
	var hist [1 << radixMaxBits]struct {
		n int
		s int64
	}
	for i, x := range v {
		if tombstoned(dead, i) {
			continue
		}
		h := &hist[((uint64(x)-from)>>shift)&(1<<radixMaxBits-1)]
		h.n++
		h.s += int64(x)
	}
	at := 0 // buckets from nb on are empty: their starts are all n
	for k, h := range hist {
		g.starts[k], g.sum[k] = at, h.s+int64(h.n)*ref
		at += h.n
	}
	g.starts[1<<radixMaxBits] = at
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
