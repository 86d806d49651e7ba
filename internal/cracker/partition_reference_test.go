package cracker

import (
	"math"
	"math/rand/v2"
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

// TestPartitionMatchesReference is the differential test between the
// predicated partitions and the seed's branchy ones: on the same input and
// sub-range both must return the same split positions (the multiset fixes
// them) and leave a correctly banded permutation with rows still paired.
// The permutations themselves may differ.
func TestPartitionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	inputs := map[string][]int64{
		"empty":      {},
		"single":     {7},
		"duplicates": {5, 5, 5, 5, 5, 5},
		"extremes":   {math.MaxInt64, math.MinInt64, 0, math.MaxInt64, -1, math.MinInt64},
		"sorted":     {1, 2, 3, 4, 5, 6, 7, 8, 9},
		"reversed":   {9, 8, 7, 6, 5, 4, 3, 2, 1},
		"random":     randomVals(rng, 1000, 64),
		"wide":       randomVals(rng, 4097, 1<<40),
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
			case trial%5 == 1:
				lo, hi = math.MinInt64, math.MaxInt64
			case trial%5 == 2:
				lo = orig[rng.IntN(n)]
				hi = lo // empty middle band
			default:
				lo, hi = orig[rng.IntN(n)], orig[rng.IntN(n)]
				if lo > hi {
					lo, hi = hi, lo
				}
			}

			pv, pr := append([]int64(nil), orig...), identityRows(n)
			rv, rr := append([]int64(nil), orig...), identityRows(n)
			got := partition2(pv, pr, a, b, lo)
			want := referencePartition2(rv, rr, a, b, lo)
			if got != want {
				t.Fatalf("%s: partition2 [%d,%d) pivot %d split at %d, reference at %d", name, a, b, lo, got, want)
			}
			checkBands(t, name+"/partition2", orig, pv, pr, a, b, []int64{lo}, []int{got})
			checkBands(t, name+"/referencePartition2", orig, rv, rr, a, b, []int64{lo}, []int{want})

			pv, pr = append(pv[:0], orig...), identityRows(n)
			rv, rr = append(rv[:0], orig...), identityRows(n)
			g1, g2 := partition3(pv, pr, a, b, lo, hi)
			w1, w2 := referencePartition3(rv, rr, a, b, lo, hi)
			if g1 != w1 || g2 != w2 {
				t.Fatalf("%s: partition3 [%d,%d) [%d,%d) split at %d,%d, reference at %d,%d", name, a, b, lo, hi, g1, g2, w1, w2)
			}
			checkBands(t, name+"/partition3", orig, pv, pr, a, b, []int64{lo, hi}, []int{g1, g2})
			checkBands(t, name+"/referencePartition3", orig, rv, rr, a, b, []int64{lo, hi}, []int{w1, w2})
		}
	}
}

// BenchmarkPartition2 is the before/after pair behind
// costmodel.PredicatedCrackFactor: one partition sweep of random values
// around the median, branchy vs predicated, over the largest piece a
// comparison crack sweeps (costmodel.DefaultRadixMinPiece; larger cold
// pieces take the radix pass). Run with
//
//	go test -run '^$' -bench 'Partition2' -count 10 ./internal/cracker/
//
// and read predicated/reference ns/op as the factor on the host at hand.
func BenchmarkPartition2(b *testing.B) {
	const n = 1 << 17
	src := randomVals(rand.New(rand.NewPCG(1, 2)), n, n)
	for _, k := range []struct {
		name      string
		partition func([]int64, []uint32, int, int, int64) int
	}{
		{"reference", referencePartition2},
		{"predicated", partition2},
	} {
		b.Run(k.name, func(b *testing.B) {
			vals, rows := make([]int64, n), identityRows(n)
			b.SetBytes(n * 8)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(vals, src) // re-shuffle: a partitioned input has no mispredictions
				b.StartTimer()
				k.partition(vals, rows, 0, n, n/2)
			}
		})
	}
}
