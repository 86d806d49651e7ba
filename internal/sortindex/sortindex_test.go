package sortindex

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"holistic/internal/column"
)

func buildFrom(vals []int64) *Index {
	v := make([]int64, len(vals))
	copy(v, vals)
	rows := make([]uint32, len(vals))
	for i := range rows {
		rows[i] = uint32(i)
	}
	return Build(v, rows)
}

func naiveRange(vals []int64, lo, hi int64) (int, int64) {
	n, s := 0, int64(0)
	for _, v := range vals {
		if v >= lo && v < hi {
			n++
			s += v
		}
	}
	return n, s
}

func TestEmpty(t *testing.T) {
	ix := buildFrom(nil)
	if ix.Len() != 0 {
		t.Fatalf("Len = %d", ix.Len())
	}
	if from, to := ix.Range(1, 5); from != to {
		t.Fatal("empty index returned values")
	}
	if _, ok := ix.Delete(3); ok {
		t.Fatal("delete on empty succeeded")
	}
}

func TestSortedOrderWithNegatives(t *testing.T) {
	vals := []int64{5, -3, 0, -3, 99, -100, 7}
	ix := buildFrom(vals)
	got := ix.Values()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("not sorted: %v", got)
	}
	// Row ids map back to originals.
	for i, r := range ix.Rows() {
		if vals[r] != got[i] {
			t.Fatalf("row %d carries %d, base %d", r, got[i], vals[r])
		}
	}
}

func TestRangeQueries(t *testing.T) {
	vals := []int64{10, 20, 20, 30, 40}
	ix := buildFrom(vals)
	cases := []struct {
		lo, hi int64
		want   int
	}{
		{0, 100, 5}, {20, 21, 2}, {10, 20, 1}, {41, 50, 0},
		{-5, 10, 0}, {20, 20, 0}, {30, 20, 0}, {10, 41, 5},
	}
	for _, c := range cases {
		from, to := ix.Range(c.lo, c.hi)
		if n, _ := ix.CountSum(from, to); n != c.want {
			t.Errorf("[%d,%d): count %d, want %d", c.lo, c.hi, n, c.want)
		}
	}
}

func TestRadixMatchesStdSortLarge(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 9))
	n := 5000 // above radixCutoff
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int64() - (1 << 62) // exercise negatives
	}
	want := append([]int64{}, vals...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	ix := buildFrom(vals)
	for i := range want {
		if ix.Values()[i] != want[i] {
			t.Fatalf("radix sort diverges at %d: %d vs %d", i, ix.Values()[i], want[i])
		}
	}
}

func TestBuildComparisonMatchesRadix(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	n := 4096
	vals := make([]int64, n)
	rows := make([]uint32, n)
	for i := range vals {
		vals[i] = rng.Int64() - (1 << 62)
		rows[i] = uint32(i)
	}
	a := Build(append([]int64{}, vals...), append([]uint32{}, rows...))
	b := BuildComparison(append([]int64{}, vals...), append([]uint32{}, rows...))
	for i := range vals {
		if a.Values()[i] != b.Values()[i] {
			t.Fatalf("sorts diverge at %d: %d vs %d", i, a.Values()[i], b.Values()[i])
		}
	}
}

func TestRadixAllEqual(t *testing.T) {
	vals := make([]int64, 3000)
	for i := range vals {
		vals[i] = 7
	}
	ix := buildFrom(vals)
	if ix.Len() != 3000 || ix.Values()[0] != 7 || ix.Values()[2999] != 7 {
		t.Fatal("all-equal sort corrupted data")
	}
}

func TestInsertKeepsSorted(t *testing.T) {
	ix := buildFrom([]int64{10, 30, 50})
	ix.Insert(20, 100)
	ix.Insert(5, 101)
	ix.Insert(60, 102)
	ix.Insert(30, 103)
	got := ix.Values()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("not sorted after inserts: %v", got)
	}
	if ix.Len() != 7 {
		t.Fatalf("len %d", ix.Len())
	}
	from, to := ix.Range(20, 21)
	if to-from != 1 || ix.Rows()[from] != 100 {
		t.Fatal("inserted row id lost")
	}
}

func TestDelete(t *testing.T) {
	ix := buildFrom([]int64{10, 20, 20, 30})
	r, ok := ix.Delete(20)
	if !ok || (r != 1 && r != 2) {
		t.Fatalf("delete: %d,%v", r, ok)
	}
	if ix.Len() != 3 {
		t.Fatalf("len %d", ix.Len())
	}
	if _, ok := ix.Delete(25); ok {
		t.Fatal("deleted absent value")
	}
}

func TestFromColumn(t *testing.T) {
	c := column.New("a")
	c.AppendBatch([]int64{3, 1, 2})
	ix := FromColumn(c)
	if ix.Values()[0] != 1 || ix.Values()[2] != 3 {
		t.Fatalf("contents %v", ix.Values())
	}
	c.Append(0)
	if ix.Len() != 3 {
		t.Fatal("index aliases column")
	}
}

func TestPropertySortedEquivalence(t *testing.T) {
	f := func(vals []int64, loRaw, spanRaw int32) bool {
		ix := buildFrom(vals)
		// Sortedness.
		for i := 1; i < ix.Len(); i++ {
			if ix.Values()[i-1] > ix.Values()[i] {
				return false
			}
		}
		lo := int64(loRaw)
		hi := lo + int64(uint32(spanRaw)%100000)
		from, to := ix.Range(lo, hi)
		n, s := ix.CountSum(from, to)
		wn, ws := naiveRange(vals, lo, hi)
		return n == wn && s == ws
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyInsertDeleteReference also holds the prefix sums to the values:
// after every insert and delete — extremes included, so the sums wrap —
// CountSum of a random region, clamped, inverted and past-the-end ones among
// them, equals a plain loop over Values.
func TestPropertyInsertDeleteReference(t *testing.T) {
	f := func(seed uint64, opsRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 17))
		ix := buildFrom(nil)
		var ref []int64
		ops := int(opsRaw) + 10
		draw := func() int64 {
			switch rng.IntN(10) {
			case 0:
				return math.MinInt64
			case 1:
				return math.MaxInt64
			}
			return rng.Int64N(100)
		}
		for i := 0; i < ops; i++ {
			switch rng.IntN(4) {
			case 3: // remove one entry by (value, row), as a merge does
				if ix.Len() == 0 {
					continue
				}
				j := rng.IntN(ix.Len())
				v := ix.Values()[j]
				if !ix.DeleteRow(v, ix.Rows()[j]) || ix.DeleteRow(v, uint32(ops)) {
					return false
				}
				ref = slices.Delete(ref, slices.Index(ref, v), slices.Index(ref, v)+1)
			case 0, 1:
				v := draw()
				ix.Insert(v, uint32(i))
				ref = append(ref, v)
			case 2:
				v := draw()
				_, ok := ix.Delete(v)
				found := false
				for j, rv := range ref {
					if rv == v {
						ref = append(ref[:j], ref[j+1:]...)
						found = true
						break
					}
				}
				if ok != found {
					return false
				}
			}
			from, to := rng.IntN(ix.Len()+5)-2, rng.IntN(ix.Len()+5)-2
			wn, ws := 0, int64(0)
			for j := max(from, 0); j < min(to, ix.Len()); j++ {
				wn, ws = wn+1, ws+ix.Values()[j]
			}
			if n, s := ix.CountSum(from, to); n != wn || s != ws {
				t.Logf("CountSum(%d, %d) over %v = %d, %d; plain loop %d, %d", from, to, ix.Values(), n, s, wn, ws)
				return false
			}
		}
		sort.Slice(ref, func(a, b int) bool { return ref[a] < ref[b] })
		if ix.Len() != len(ref) {
			return false
		}
		for i := range ref {
			if ix.Values()[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuildRadix1M(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	base := make([]int64, 1<<20)
	for i := range base {
		base[i] = rng.Int64N(1 << 40)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		vals := append([]int64{}, base...)
		rows := make([]uint32, len(vals))
		b.StartTimer()
		Build(vals, rows)
	}
}

func BenchmarkRangeLookup(b *testing.B) {
	rng := rand.New(rand.NewPCG(2, 2))
	vals := make([]int64, 1<<20)
	for i := range vals {
		vals[i] = rng.Int64N(1 << 30)
	}
	ix := buildFrom(vals)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Int64N(1 << 30)
		ix.Range(lo, lo+1<<22)
	}
}
