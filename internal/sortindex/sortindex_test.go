package sortindex

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"holistic/internal/updates"
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
	if ix.Merge(nil, []updates.Entry{{Val: 3}}) != 1 {
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

func TestBuildMatchesStdSortLarge(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 9))
	n := 5000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int64() - (1 << 62) // exercise negatives
	}
	want := append([]int64{}, vals...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	ix := buildFrom(vals)
	for i := range want {
		if ix.Values()[i] != want[i] {
			t.Fatalf("Build diverges at %d: %d vs %d", i, ix.Values()[i], want[i])
		}
	}
}

func TestBuildAllEqual(t *testing.T) {
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
	ix.Merge([]updates.Entry{{Val: 5, Row: 101}, {Val: 20, Row: 100}, {Val: 30, Row: 103}, {Val: 60, Row: 102}}, nil)
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
	if ix.Merge(nil, []updates.Entry{{Val: 20, Row: 1}}) != 0 {
		t.Fatal("delete of a present (value, row) missed")
	}
	if ix.Len() != 3 {
		t.Fatalf("len %d", ix.Len())
	}
	if from, _ := ix.Range(20, 21); ix.Rows()[from] != 2 {
		t.Fatalf("row 2's duplicate should remain, found row %d", ix.Rows()[from])
	}
	if ix.Merge(nil, []updates.Entry{{Val: 25}, {Val: 30}}) != 2 {
		t.Fatal("deleted an absent (value, row)")
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

// byPair returns es sorted by value, then row.
func byPair(es []updates.Entry) []updates.Entry {
	return slices.SortedFunc(slices.Values(es), func(a, b updates.Entry) int {
		return cmp.Or(cmp.Compare(a.Val, b.Val), cmp.Compare(a.Row, b.Row))
	})
}

// TestPropertyInsertDeleteReference merges random batches — duplicates and
// the extremes among them, so the prefix sums wrap, and deletes of pairs the
// index does not hold — and holds the index to a sorted slice of the (value,
// row) pairs it must hold: sorted values, the same pairs, the misses counted,
// and CountSum of a random region (clamped, inverted and past-the-end ones
// among them) equal to a plain loop.
func TestPropertyInsertDeleteReference(t *testing.T) {
	f := func(seed uint64, opsRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 17))
		ix := buildFrom(nil)
		var ref []updates.Entry
		nextRow := uint32(0)
		draw := func() int64 {
			switch rng.IntN(10) {
			case 0:
				return math.MinInt64
			case 1:
				return math.MaxInt64
			}
			return rng.Int64N(100)
		}
		for i := int(opsRaw%40) + 5; i > 0; i-- {
			var ins, del []updates.Entry
			for k := rng.IntN([]int{2, 9, 65}[rng.IntN(3)]); k > 0; k-- {
				ins = append(ins, updates.Entry{Val: draw(), Row: nextRow})
				nextRow++
			}
			for k := rng.IntN(9); k > 0 && len(ref) > 0; k-- {
				j := rng.IntN(len(ref))
				del = append(del, ref[j])
				ref = slices.Delete(ref, j, j+1)
			}
			absent := rng.IntN(3)
			for k := 0; k < absent; k++ {
				del = append(del, updates.Entry{Val: draw(), Row: nextRow})
			}
			updates.SortByVal(ins)
			updates.SortByVal(del)
			if missing := ix.Merge(ins, del); missing != absent {
				t.Logf("Merge missed %d deletes, %d were absent", missing, absent)
				return false
			}
			ref = append(ref, ins...)
			got := make([]updates.Entry, ix.Len())
			for j, v := range ix.Values() {
				got[j] = updates.Entry{Val: v, Row: ix.Rows()[j]}
			}
			if !slices.IsSorted(ix.Values()) || !slices.Equal(byPair(got), byPair(ref)) {
				t.Logf("index holds %v, the slice %v", got, byPair(ref))
				return false
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
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
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
