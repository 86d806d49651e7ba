package cracker

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
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
// outside [a, b) is untouched, and every row id still carries its value.
func checkBands(t *testing.T, name string, orig, vals []int64, rows []uint32, a, b int, bounds []int64, cuts []int) {
	t.Helper()
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
func checkPartition(t *testing.T, name string, orig []int64, a, b int, lo, hi int64) {
	t.Helper()
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
// branchy loop on the host at hand, and
// values/rows as what a values-only copy saves.
func BenchmarkPartition2(b *testing.B) {
	const total = 1 << 17
	kernels := []struct {
		name      string
		partition func(vals []int64, rows []uint32, a, b int, pivot int64) int
	}{
		{"reference", referencePartition2},
		{"rows", func(vals []int64, rows []uint32, a, b int, pivot int64) int {
			m, _ := partition2(vals, rows, a, b, pivot)
			return m
		}},
		{"values", func(vals []int64, _ []uint32, a, b int, pivot int64) int {
			m, _ := partition2(vals, nil, a, b, pivot)
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
					vals, rows := make([]int64, total), identityRows(total)
					b.SetBytes(total * 8)
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						copy(vals, src) // re-shuffle: a partitioned input has no mispredictions
						b.StartTimer()
						for a := 0; a < total; a += n {
							k.partition(vals, rows, a, a+n, pv.pivot)
						}
					}
				})
			}
		}
	}
}
