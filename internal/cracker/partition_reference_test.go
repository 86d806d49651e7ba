package cracker

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// Branchy reference partitions — the seed kernel's loops, kept verbatim as
// the baseline the differential test and the benchmark pair below compare
// the predicated loops in partition.go against. Test-only: partition.go
// carries a zero-bounds-check contract enforced by CI, and these baselines
// are not held to it.

// referencePartition2 is the seed's branchy Hoare partition over vals[a:b].
// Semantics are identical to partition2.
func referencePartition2(vals []int64, rows []uint32, a, b int, pivot int64) int {
	i, j := a, b-1
	for {
		for i <= j && vals[i] < pivot {
			i++
		}
		for i <= j && vals[j] >= pivot {
			j--
		}
		if i >= j {
			break
		}
		vals[i], vals[j] = vals[j], vals[i]
		rows[i], rows[j] = rows[j], rows[i]
		i++
		j--
	}
	return i
}

// referencePartition3 is the seed's branchy single-pass three-way partition.
// Semantics are identical to partition3.
func referencePartition3(vals []int64, rows []uint32, a, b int, lo, hi int64) (m1, m2 int) {
	lt, i, gt := a, a, b-1
	for i <= gt {
		switch v := vals[i]; {
		case v < lo:
			vals[i], vals[lt] = vals[lt], vals[i]
			rows[i], rows[lt] = rows[lt], rows[i]
			lt++
			i++
		case v >= hi:
			vals[i], vals[gt] = vals[gt], vals[i]
			rows[i], rows[gt] = rows[gt], rows[i]
			gt--
		default:
			i++
		}
	}
	return lt, gt + 1
}

// partition3 reorders vals[a:b] into three bands: < lo, [lo, hi), >= hi,
// returning the two split positions (m1 = start of middle, m2 = start of the
// high band) and the wrapping sums of the low and middle bands: the crack in
// three Index.partition makes. Alvarez et al. observe that two predicated
// two-way passes are faster than one branchy three-way pass, so
// crack-in-three is exactly that: split on lo, then split the upper band on
// hi.
func partition3(vals []int64, rows []uint32, a, b int, lo, hi int64) (m1, m2 int, sumLow, sumMid int64) {
	m1, sumLow = partition2(vals, rows, a, b, lo)
	m2, sumMid = partition2(vals, rows, m1, b, hi)
	return m1, m2, sumLow, sumMid
}

// identityRows returns the row ids 0..n-1, so orig[rows[i]] names the value
// row i started with.
func identityRows(n int) []uint32 {
	rows := make([]uint32, n)
	for i := range rows {
		rows[i] = uint32(i)
	}
	return rows
}

// checkBands fails unless vals[a:b] is banded at the split positions cuts
// against the bounds (band k holds bounds[k-1] <= v < bounds[k]), everything
// outside [a, b) is untouched, and every row id still carries its value. With
// rows nil (a values-only copy) it checks instead that vals[a:b] is still
// orig[a:b]'s multiset.
func checkBands(t *testing.T, name string, orig, vals []int64, rows []uint32, a, b int, bounds []int64, cuts []int) {
	t.Helper()
	if rows == nil {
		for i, v := range vals {
			if (i < a || i >= b) && v != orig[i] {
				t.Fatalf("%s: position %d outside [%d,%d) was written", name, i, a, b)
			}
		}
		want, got := slices.Clone(orig[a:b]), slices.Clone(vals[a:b])
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: [%d,%d) is no longer the piece's multiset", name, a, b)
		}
	} else {
		seen := make([]bool, len(orig))
		for i, v := range vals {
			r := rows[i]
			if seen[r] || orig[r] != v {
				t.Fatalf("%s: row %d detached from its value at position %d", name, r, i)
			}
			seen[r] = true
			if (i < a || i >= b) && int(r) != i {
				t.Fatalf("%s: position %d outside [%d,%d) was moved", name, i, a, b)
			}
		}
	}
	band := 0
	for i := a; i < b; i++ {
		for band < len(cuts) && i >= cuts[band] {
			band++
		}
		if (band > 0 && vals[i] < bounds[band-1]) || (band < len(bounds) && vals[i] >= bounds[band]) {
			t.Fatalf("%s: vals[%d]=%d in band %d of cuts %v bounds %v", name, i, vals[i], band, cuts, bounds)
		}
	}
}

// checkPartition runs partition2 at lo and partition3 at [lo, hi) over
// orig[a:b] beside the branchy references: same split positions (the multiset
// fixes them), a correctly banded permutation with rows still paired and
// nothing outside [a, b) written, and returned sums equal to a plain loop
// (plainCountSum) over the bands. The permutations themselves may differ.
// The same checks then run over a values-only copy (rows nil) with every
// values-only kernel the host supports (checkValuesPartition).
func checkPartition(t *testing.T, name string, orig []int64, a, b int, lo, hi int64) {
	t.Helper()
	for _, k := range valuesKernels {
		withValuesKernel(k.vector, func() { checkValuesPartition(t, k.name+"/"+name, orig, a, b, lo, hi) })
	}
	n := len(orig)
	pv, pr := append([]int64(nil), orig...), identityRows(n)
	rv, rr := append([]int64(nil), orig...), identityRows(n)
	got, sum := partition2(pv, pr, a, b, lo)
	want := referencePartition2(rv, rr, a, b, lo)
	if got != want {
		t.Fatalf("%s: partition2 [%d,%d) pivot %d split at %d, reference at %d", name, a, b, lo, got, want)
	}
	checkBands(t, name+"/partition2", orig, pv, pr, a, b, []int64{lo}, []int{got})
	checkBands(t, name+"/referencePartition2", orig, rv, rr, a, b, []int64{lo}, []int{want})
	if _, ws := plainCountSum(pv, a, got); sum != ws {
		t.Fatalf("%s: partition2 [%d,%d) pivot %d low sum %d, plain loop %d", name, a, b, lo, sum, ws)
	}

	pv, pr = append(pv[:0], orig...), identityRows(n)
	rv, rr = append(rv[:0], orig...), identityRows(n)
	g1, g2, sLow, sMid := partition3(pv, pr, a, b, lo, hi)
	w1, w2 := referencePartition3(rv, rr, a, b, lo, hi)
	if g1 != w1 || g2 != w2 {
		t.Fatalf("%s: partition3 [%d,%d) [%d,%d) split at %d,%d, reference at %d,%d", name, a, b, lo, hi, g1, g2, w1, w2)
	}
	checkBands(t, name+"/partition3", orig, pv, pr, a, b, []int64{lo, hi}, []int{g1, g2})
	checkBands(t, name+"/referencePartition3", orig, rv, rr, a, b, []int64{lo, hi}, []int{w1, w2})
	_, wl := plainCountSum(pv, a, g1)
	_, wm := plainCountSum(pv, g1, g2)
	if sLow != wl || sMid != wm {
		t.Fatalf("%s: partition3 [%d,%d) [%d,%d) sums %d,%d, plain loop %d,%d", name, a, b, lo, hi, sLow, sMid, wl, wm)
	}
}

// valuesKernels are the kernels partition2 may run over a values-only copy
// (rows nil): partition2Vals everywhere, partition2Vector where the CPU has
// AVX-512F (vectorSupported).
var valuesKernels = []struct {
	name   string
	vector bool
}{{"scalar", false}, {"vector", true}}

// withValuesKernel runs f with partition2's values-only path switched to the
// vector kernel or to the scalar one, and reports false without running f
// when the host lacks the vector kernel.
func withValuesKernel(vector bool, f func()) bool {
	if vector && !vectorSupported() {
		return false
	}
	saved := vectorPartition
	vectorPartition = vector
	defer func() { vectorPartition = saved }()
	f()
	return true
}

// countBelow is the number of values < pivot, the split position any
// partition of vals at pivot must return (relative to the piece's start).
func countBelow(vals []int64, pivot int64) int {
	n := 0
	for _, v := range vals {
		n += b2i(v < pivot)
	}
	return n
}

// checkValuesPartition runs partition2 at lo and partition3 at [lo, hi)
// (lo <= hi) over a values-only copy of orig, on [a, b), with whichever
// values-only kernel is switched in; name carries the kernel's name. Split
// positions must equal the counts below each bound, the piece must stay
// orig[a:b]'s multiset, correctly banded, with nothing outside [a, b)
// written, and the sums must equal plainCountSum over the bands.
func checkValuesPartition(t *testing.T, name string, orig []int64, a, b int, lo, hi int64) {
	t.Helper()
	vals := slices.Clone(orig)
	m, sum := partition2(vals, nil, a, b, lo)
	if want := a + countBelow(orig[a:b], lo); m != want {
		t.Fatalf("%s: values-only partition2 [%d,%d) pivot %d split at %d, want %d", name, a, b, lo, m, want)
	}
	checkBands(t, name+"/values/partition2", orig, vals, nil, a, b, []int64{lo}, []int{m})
	if _, ws := plainCountSum(vals, a, m); sum != ws {
		t.Fatalf("%s: values-only partition2 [%d,%d) pivot %d low sum %d, plain loop %d", name, a, b, lo, sum, ws)
	}

	vals = append(vals[:0], orig...)
	m1, m2, sLow, sMid := partition3(vals, nil, a, b, lo, hi)
	if w1, w2 := a+countBelow(orig[a:b], lo), a+countBelow(orig[a:b], hi); m1 != w1 || m2 != w2 {
		t.Fatalf("%s: values-only partition3 [%d,%d) [%d,%d) split at %d,%d, want %d,%d", name, a, b, lo, hi, m1, m2, w1, w2)
	}
	checkBands(t, name+"/values/partition3", orig, vals, nil, a, b, []int64{lo, hi}, []int{m1, m2})
	_, wl := plainCountSum(vals, a, m1)
	_, wm := plainCountSum(vals, m1, m2)
	if sLow != wl || sMid != wm {
		t.Fatalf("%s: values-only partition3 [%d,%d) [%d,%d) sums %d,%d, plain loop %d,%d", name, a, b, lo, hi, sLow, sMid, wl, wm)
	}
}

// widenOffsets returns a narrow copy's offsets as int64s, for the checks
// written over values.
func widenOffsets(off []uint32) []int64 {
	w := make([]int64, len(off))
	for i, o := range off {
		w[i] = int64(o)
	}
	return w
}

// checkOffPartition is checkValuesPartition over a narrow copy's offsets:
// partition2Off at lo, then at hi over the upper band (the three-way split
// a crack makes), lo <= hi <= 2^32, with whichever kernel is switched in
// (partition2Off32 or partition2OffVector). The sums must equal the plain
// loop's, which cannot wrap.
func checkOffPartition(t *testing.T, name string, orig []uint32, a, b int, lo, hi uint64) {
	t.Helper()
	wideOrig := widenOffsets(orig)
	off := slices.Clone(orig)
	m, sum := partition2Off(off, a, b, lo)
	if want := a + countBelow(wideOrig[a:b], int64(lo)); m != want {
		t.Fatalf("%s: partition2Off [%d,%d) pivot %d split at %d, want %d", name, a, b, lo, m, want)
	}
	wide := widenOffsets(off)
	checkBands(t, name+"/offsets/partition2", wideOrig, wide, nil, a, b, []int64{int64(lo)}, []int{m})
	if _, ws := plainCountSum(wide, a, m); int64(sum) != ws {
		t.Fatalf("%s: partition2Off [%d,%d) pivot %d low sum %d, plain loop %d", name, a, b, lo, sum, ws)
	}

	off = append(off[:0], orig...)
	m1, sLow := partition2Off(off, a, b, lo)
	m2, sMid := partition2Off(off, m1, b, hi)
	if w1, w2 := a+countBelow(wideOrig[a:b], int64(lo)), a+countBelow(wideOrig[a:b], int64(hi)); m1 != w1 || m2 != w2 {
		t.Fatalf("%s: partition2Off in three [%d,%d) [%d,%d) split at %d,%d, want %d,%d", name, a, b, lo, hi, m1, m2, w1, w2)
	}
	wide = widenOffsets(off)
	checkBands(t, name+"/offsets/partition3", wideOrig, wide, nil, a, b, []int64{int64(lo), int64(hi)}, []int{m1, m2})
	_, wl := plainCountSum(wide, a, m1)
	_, wm := plainCountSum(wide, m1, m2)
	if int64(sLow) != wl || int64(sMid) != wm {
		t.Fatalf("%s: partition2Off in three [%d,%d) [%d,%d) sums %d,%d, plain loop %d,%d", name, a, b, lo, hi, sLow, sMid, wl, wm)
	}
}

// TestPartitionValuesMatchesReference is the values-only kernels'
// differential test (checkValuesPartition), run once per kernel the host
// supports: every piece of 0 to 40 values (the vector kernel takes whole
// vectors from 16 values on and hands the rest to the scalar loop), then
// random pieces up to 2 100 values at random offsets, over small domains
// (duplicates, pivots equal to values), wide ones and the full int64 range
// (wrapping sums), with pivots drawn from the piece, just beside a value,
// MinInt64 and MaxInt64. The narrow copy's kernels (checkOffPartition:
// partition2Off32, and partitionVec32 on sixteen offsets a step, from 32
// on) take the same sizes over offsets, with pivots at 0, MaxUint32 and
// 2^32 (past every offset).
func TestPartitionValuesMatchesReference(t *testing.T) {
	for _, k := range valuesKernels {
		t.Run(k.name, func(t *testing.T) {
			ran := withValuesKernel(k.vector, func() {
				rng := rand.New(rand.NewPCG(17, 19))
				check := func(n int) {
					domain := []int64{4, 1 << 20, 0}[rng.IntN(3)]
					pad := rng.IntN(10)
					orig := make([]int64, n+pad+rng.IntN(10))
					for i := range orig {
						if domain == 0 {
							orig[i] = int64(rng.Uint64())
						} else {
							orig[i] = rng.Int64N(domain) - domain/2
						}
					}
					if n > 0 && rng.IntN(8) == 0 {
						orig[pad], orig[pad+n-1] = math.MinInt64, math.MaxInt64
					}
					pick := func() int64 {
						switch r := rng.IntN(8); {
						case r == 0:
							return math.MinInt64
						case r == 1:
							return math.MaxInt64
						case n == 0 || r == 2:
							return int64(rng.Uint64())
						default:
							return orig[pad+rng.IntN(n)] + int64(rng.IntN(3)) - 1
						}
					}
					lo, hi := pick(), pick()
					if lo > hi {
						lo, hi = hi, lo
					}
					checkValuesPartition(t, k.name, orig, pad, pad+n, lo, hi)
				}
				checkOff := func(n int) {
					domain := []uint64{4, 1 << 20, 1 << 32}[rng.IntN(3)]
					pad := rng.IntN(10)
					orig := make([]uint32, n+pad+rng.IntN(10))
					for i := range orig {
						orig[i] = uint32(rng.Uint64N(domain))
					}
					if n > 0 && rng.IntN(8) == 0 {
						orig[pad], orig[pad+n-1] = 0, math.MaxUint32
					}
					pick := func() uint64 {
						switch r := rng.IntN(8); {
						case r == 0:
							return 0
						case r == 1:
							return 1 << 32
						case r == 2:
							return math.MaxUint32
						case n == 0 || r == 3:
							return rng.Uint64N(1<<32 + 1)
						default: // a value of the piece or one beside it, in [0, 2^32]
							return max(uint64(orig[pad+rng.IntN(n)])+uint64(rng.IntN(3)), 1) - 1
						}
					}
					lo, hi := pick(), pick()
					if lo > hi {
						lo, hi = hi, lo
					}
					checkOffPartition(t, k.name, orig, pad, pad+n, lo, hi)
				}
				for n := 0; n <= 72; n++ {
					for trial := 0; trial < 200; trial++ {
						if n <= 40 {
							check(n)
						}
						checkOff(n)
					}
				}
				for trial := 0; trial < 2000; trial++ {
					check(41 + rng.IntN(2060))
					checkOff(73 + rng.IntN(2060))
				}
			})
			if !ran {
				t.Skipf("%s kernel: not supported on this CPU", k.name)
			}
		})
	}
}

// TestPartitionMatchesReference is the differential test between the
// one-cursor partitions and the seed's branchy ones (see checkPartition) over
// the piece shapes a crack meets: empty, single, all-equal, sorted, reversed,
// all below / all at or above the pivot, and values whose sums wrap.
func TestPartitionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	sorted := make([]int64, 777)
	for i := range sorted {
		sorted[i] = int64(i) * 3
	}
	reversed := append([]int64(nil), sorted...)
	slices.Reverse(reversed)
	wrapping := make([]int64, 513) // full-range values: every sum overflows
	for i := range wrapping {
		wrapping[i] = int64(rng.Uint64())
	}
	wrapping[0], wrapping[1], wrapping[2] = math.MinInt64, math.MaxInt64, math.MinInt64
	inputs := map[string][]int64{
		"empty":      {},
		"single":     {7},
		"duplicates": {5, 5, 5, 5, 5, 5},
		"extremes":   {math.MaxInt64, math.MinInt64, 0, math.MaxInt64, -1, math.MinInt64},
		"sorted":     sorted,
		"reversed":   reversed,
		"random":     randomVals(rng, 1000, 64),
		"wide":       randomVals(rng, 4097, 1<<40),
		"wrapping":   wrapping,
	}
	for name, orig := range inputs {
		n := len(orig)
		for trial := 0; trial < 50; trial++ {
			a, b := 0, n
			if n > 0 && trial > 0 {
				a = rng.IntN(n + 1)
				b = a + rng.IntN(n-a+1)
			}
			var lo, hi int64
			switch {
			case n == 0:
			case trial%5 == 1: // nothing below lo, everything (bar MaxInt64) below hi
				lo, hi = math.MinInt64, math.MaxInt64
			case trial%5 == 2:
				lo = orig[rng.IntN(n)]
				hi = lo // empty middle band
			case trial%5 == 3: // everything (bar MaxInt64) below lo
				lo, hi = math.MaxInt64, math.MaxInt64
			default:
				lo, hi = orig[rng.IntN(n)], orig[rng.IntN(n)]
				if lo > hi {
					lo, hi = hi, lo
				}
			}
			checkPartition(t, name, orig, a, b, lo, hi)
		}
	}
}

// FuzzPartition drives checkPartition from raw bytes: eight per value (so
// MinInt64, MaxInt64 and wrapping sums are one mutation away), then the
// sub-range and both pivots, which may be values of the piece or anything.
// The same bytes, four per offset, then drive checkOffPartition with every
// narrow kernel the host supports (partition2Off32, partitionVec32), the
// pivots taken modulo 2^32 + 1.
func FuzzPartition(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint16(0), int64(0), int64(0))
	f.Add([]byte("one cursor, front to back, sums folded into the sweep"), uint16(1), uint16(5), int64(0x6f72662072), int64(0x7320656874))
	f.Add(bytes.Repeat([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80}, 9), uint16(2), uint16(17), int64(math.MinInt64), int64(math.MaxInt64))
	f.Add(bytes.Repeat([]byte{5, 0, 0, 0, 0, 0, 0, 0}, 33), uint16(0), uint16(33), int64(5), int64(6))
	f.Fuzz(func(t *testing.T, data []byte, a, b uint16, lo, hi int64) {
		orig := make([]int64, len(data)/8)
		for i := range orig {
			orig[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
		from := int(a) % (len(orig) + 1)
		to := from + int(b)%(len(orig)-from+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		checkPartition(t, "fuzz", orig, from, to, lo, hi)

		off := make([]uint32, len(data)/4)
		for i := range off {
			off[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
		from = int(a) % (len(off) + 1)
		to = from + int(b)%(len(off)-from+1)
		olo, ohi := uint64(lo)%(1<<32+1), uint64(hi)%(1<<32+1)
		if olo > ohi {
			olo, ohi = ohi, olo
		}
		for _, k := range valuesKernels {
			withValuesKernel(k.vector, func() { checkOffPartition(t, k.name+"/fuzz", off, from, to, olo, ohi) })
		}
	})
}

// BenchmarkPartition2 is the before/after pair of the seed's branchy
// partition and the predicated kernel: branchy vs predicated sweeps of shuffled
// values — the predicated one with the row ids in lockstep (rows) and over a
// values-only copy (values) — by piece size — up to the largest piece a comparison crack sweeps
// (costmodel.DefaultRadixMinPiece; larger cold pieces take the radix pass) —
// and by where the pivot falls in the piece: a kernel whose cursors are
// data-dependent slows down off the median, while the branchy loop speeds up
// as its branches become predictable. Every op partitions 2^17 values (one
// piece, or back-to-back smaller ones), so ns/op compares across sizes. Run
//
//	go test -run '^$' -bench 'Partition2' -count 10 ./internal/cracker/
//
// and read rows/reference ns/op as the predicated kernel's cost against the
// branchy loop on the host at hand,
// values/rows as what a values-only copy saves, and offsets/values as what
// a narrow copy saves (the same values as uint32 offsets, ref 0).
func BenchmarkPartition2(b *testing.B) {
	const total = 1 << 17
	kernels := []struct {
		name      string
		partition func(vals []int64, off, rows []uint32, a, b int, pivot int64) int
	}{
		{"reference", func(vals []int64, _, rows []uint32, a, b int, pivot int64) int {
			return referencePartition2(vals, rows, a, b, pivot)
		}},
		{"rows", func(vals []int64, _, rows []uint32, a, b int, pivot int64) int {
			m, _ := partition2(vals, rows, a, b, pivot)
			return m
		}},
		{"values", func(vals []int64, _, _ []uint32, a, b int, pivot int64) int {
			m, _ := partition2Vals(vals, a, b, pivot)
			return m
		}},
		{"values/vector", func(vals []int64, _, _ []uint32, a, b int, pivot int64) int {
			m, _ := partition2Vector(vals, a, b, pivot)
			return m
		}},
		{"offsets", func(_ []int64, off, _ []uint32, a, b int, pivot int64) int {
			m, _ := partition2Off32(off, a, b, uint64(max(pivot, 0)))
			return m
		}},
		{"offsets/vector", func(_ []int64, off, _ []uint32, a, b int, pivot int64) int {
			m, _ := partition2OffVector(off, a, b, uint64(max(pivot, 0)))
			return m
		}},
	}
	for _, n := range []int{1 << 9, 1 << 14, total} {
		src := randomVals(rand.New(rand.NewPCG(1, 2)), total, int64(n))
		for _, pv := range []struct {
			name  string
			pivot int64
		}{
			{"median", int64(n / 2)},
			{"p10", int64(n / 10)},
			{"belowmin", -1},
		} {
			for _, k := range kernels {
				b.Run(fmt.Sprintf("%s/n=%d/pivot=%s", k.name, n, pv.name), func(b *testing.B) {
					if strings.HasSuffix(k.name, "/vector") && !vectorSupported() {
						b.Skip("this CPU lacks the vector kernel")
					}
					vals, off, rows := make([]int64, total), make([]uint32, total), identityRows(total)
					b.SetBytes(total * 8)
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						copy(vals, src) // re-shuffle: a partitioned input has no mispredictions
						for j, v := range src {
							off[j] = uint32(v)
						}
						b.StartTimer()
						for a := 0; a < total; a += n {
							k.partition(vals, off, rows, a, a+n, pv.pivot)
						}
					}
				})
			}
		}
	}
}
