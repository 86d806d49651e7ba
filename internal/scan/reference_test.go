package scan

import (
	"math"
	"math/rand/v2"
	"testing"
)

// Branchy reference scan — the seed's loop, kept verbatim as the baseline
// the differential test and the benchmark pair below compare the
// branch-free loop in scan.go against. Test-only: scan.go carries a
// zero-bounds-check contract enforced by CI, and this baseline is not
// held to it.

func referenceCountSum(vals []int64, lo, hi int64) (count int, sum int64) {
	for _, v := range vals {
		if v >= lo && v < hi {
			count++
			sum += v
		}
	}
	return count, sum
}

func randomVals(rng *rand.Rand, n int, domain int64) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int64N(domain)
	}
	return vals
}

// TestScanMatchesReference is the differential test between the branch-free
// scan and the seed's branchy one: same count and sum on empty, inverted,
// extreme and random ranges.
func TestScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 8))
	inputs := [][]int64{
		nil,
		{7},
		{5, 5, 5, 5},
		{math.MaxInt64, math.MinInt64, 0, -1, math.MaxInt64, math.MinInt64},
		randomVals(rng, 1000, 64),
		randomVals(rng, 4097, 1<<40),
	}
	for _, vals := range inputs {
		ranges := [][2]int64{
			{math.MinInt64, math.MaxInt64}, {0, 0}, {10, 3},
			{math.MinInt64, math.MinInt64 + 1}, {math.MaxInt64 - 1, math.MaxInt64},
		}
		for i := 0; i < 40 && len(vals) > 0; i++ {
			lo, hi := vals[rng.IntN(len(vals))], vals[rng.IntN(len(vals))]
			if lo > hi {
				lo, hi = hi, lo
			}
			ranges = append(ranges, [2]int64{lo, hi + int64(i%2)})
		}
		for _, r := range ranges {
			lo, hi := r[0], r[1]
			wc, ws := referenceCountSum(vals, lo, hi)
			if c, s := CountSum(vals, lo, hi); c != wc || s != ws {
				t.Fatalf("CountSum n=%d [%d,%d): got %d/%d, reference %d/%d", len(vals), lo, hi, c, s, wc, ws)
			}
		}
	}
}

// Before/after pair for the branch-free scan at ~50% selectivity, where a
// branch mispredicts every other element. Run with
//
//	go test -run '^$' -bench CountSum -count 10 ./internal/scan/
func BenchmarkCountSum(b *testing.B) {
	const n = 1 << 21
	vals := randomVals(rand.New(rand.NewPCG(1, 2)), n, n)
	for _, k := range []struct {
		name     string
		countSum func([]int64, int64, int64) (int, int64)
	}{
		{"reference", referenceCountSum},
		{"predicated", CountSum},
	} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(n * 8)
			for i := 0; i < b.N; i++ {
				k.countSum(vals, n/4, 3*n/4)
			}
		})
	}
}
