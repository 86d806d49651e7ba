package cracker

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

func TestBuildMatchesStdSortLarge(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 9))
	vals, rows := make([]int64, 5000), make([]uint32, 5000)
	for i := range vals {
		vals[i], rows[i] = rng.Int64()-(1<<62), uint32(i) // exercise negatives
	}
	ix := New(slices.Clone(vals), rows)
	ix.Sort()
	if !slices.Equal(ix.AppendValues(nil), slices.Sorted(slices.Values(vals))) {
		t.Fatal("Sort diverges from slices.Sort")
	}
	for i, r := range ix.Rows() {
		if vals[r] != ix.AppendValues(nil)[i] {
			t.Fatalf("row %d carries %d, base %d", r, ix.AppendValues(nil)[i], vals[r])
		}
	}
}

func TestBuildAllEqual(t *testing.T) {
	ix := New(slices.Repeat([]int64{7}, 3000), make([]uint32, 3000))
	ix.Sort()
	if ix.Len() != 3000 || ix.AppendValues(nil)[0] != 7 || ix.AppendValues(nil)[2999] != 7 || ix.Validate() != nil {
		t.Fatal("all-equal sort corrupted data")
	}
}

func BenchmarkBuild1M(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	base := make([]int64, 1<<20)
	for i := range base {
		base[i] = rng.Int64N(1 << 40)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix := New(slices.Clone(base), make([]uint32, len(base)))
		b.StartTimer()
		ix.Sort()
	}
}

// referenceComparisonSortPairs is the seed's interface-based comparison sort
// (sort.Slice over an index permutation), kept as the baseline the offline-
// sort benchmarks compare the concrete-pair pdqsort against.
func referenceComparisonSortPairs(vals []int64, rows []uint32) {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	outV := make([]int64, len(vals))
	outR := make([]uint32, len(rows))
	for i, j := range idx {
		outV[i] = vals[j]
		outR[i] = rows[j]
	}
	copy(vals, outV)
	copy(rows, outR)
}

func benchPairs(n int) ([]int64, []uint32) {
	rng := rand.New(rand.NewPCG(1, 2))
	vals := make([]int64, n)
	rows := make([]uint32, n)
	for i := range vals {
		vals[i] = rng.Int64()
		rows[i] = uint32(i)
	}
	return vals, rows
}

// Before/after pair for the offline comparison sort: run with
//
//	go test -bench 'ComparisonSort' -count 10 ./internal/cracker/ | benchstat -
//
// (or compare the two names by hand) to see the interface-dispatch cost the
// concrete-pair pdqsort removes.
func BenchmarkComparisonSortReference(b *testing.B) {
	vals, rows := benchPairs(1 << 16)
	v := make([]int64, len(vals))
	r := make([]uint32, len(rows))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(v, vals)
		copy(r, rows)
		referenceComparisonSortPairs(v, r)
	}
}

func BenchmarkComparisonSortPairs(b *testing.B) {
	vals, rows := benchPairs(1 << 16)
	v := make([]int64, len(vals))
	r := make([]uint32, len(rows))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(v, vals)
		copy(r, rows)
		comparisonSortPairs(v, r)
	}
}

func TestComparisonSortMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 17, 1024, 5000} {
		vals, rows := benchPairs(n)
		v1 := append([]int64(nil), vals...)
		r1 := append([]uint32(nil), rows...)
		v2 := append([]int64(nil), vals...)
		r2 := append([]uint32(nil), rows...)
		comparisonSortPairs(v1, r1)
		referenceComparisonSortPairs(v2, r2)
		for i := range v1 {
			if v1[i] != v2[i] {
				t.Fatalf("n=%d: sorted values diverge at %d: %d != %d", n, i, v1[i], v2[i])
			}
		}
		// Rows must stay paired with their values (order among duplicates is
		// unspecified; random 64-bit values make duplicates negligible).
		for i := range v1 {
			if vals[r1[i]] != v1[i] {
				t.Fatalf("n=%d: row %d detached from its value", n, i)
			}
		}
	}
}
