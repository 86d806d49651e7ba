package sortindex

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
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
	if from, to := ix.Range(1, 5); from != to {
		t.Fatal("empty index returned values")
	}
	if n, s := ix.CountSum(-1, 3); n != 0 || s != 0 {
		t.Fatalf("empty index aggregates %d/%d", n, s)
	}
}

func TestSortedOrderWithNegatives(t *testing.T) {
	vals := []int64{5, -3, 0, -3, 99, -100, 7}
	ix := buildFrom(vals)
	for _, r := range [][2]int64{{-100, -3}, {-3, -2}, {-100, 0}, {-3, 8}, {0, 100}} {
		wn, ws := naiveRange(vals, r[0], r[1])
		if n, s := ix.CountSum(ix.Range(r[0], r[1])); n != wn || s != ws {
			t.Fatalf("[%d, %d): %d/%d, want %d/%d", r[0], r[1], n, s, wn, ws)
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

func TestPropertySortedEquivalence(t *testing.T) {
	f := func(vals []int64, loRaw, spanRaw int32) bool {
		ix := buildFrom(vals)
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
