package scan

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestCountSumBasic(t *testing.T) {
	vals := []int64{1, 5, 10, 15, 20}
	n, s := CountSum(vals, 5, 16)
	if n != 3 || s != 30 {
		t.Fatalf("got %d/%d", n, s)
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	if n, s := CountSum(nil, 0, 10); n != 0 || s != 0 {
		t.Fatal("empty input produced results")
	}
	if n := Count([]int64{1, 2, 3}, 5, 5); n != 0 {
		t.Fatal("empty range matched")
	}
	if n := Count([]int64{1, 2, 3}, 5, 2); n != 0 {
		t.Fatal("inverted range matched")
	}
	if _, _, ok := MinMax(nil); ok {
		t.Fatal("MinMax ok on empty")
	}
}

func TestPositions(t *testing.T) {
	vals := []int64{9, 2, 7, 2, 5}
	got := Positions(vals, 2, 6, nil)
	want := []uint32{1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("positions %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("positions %v, want %v", got, want)
		}
	}
	// Appends to existing slice.
	got = Positions(vals, 7, 10, got)
	if len(got) != 5 || got[3] != 0 || got[4] != 2 {
		t.Fatalf("append positions %v", got)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, ok := MinMax([]int64{3, -7, 12, 0})
	if !ok || lo != -7 || hi != 12 {
		t.Fatalf("MinMax = %d,%d,%v", lo, hi, ok)
	}
}

func TestPropertyCountMatchesPositions(t *testing.T) {
	f := func(vals []int64, lo, span int16) bool {
		l, h := int64(lo), int64(lo)+int64(span&0x7fff)
		n, s := CountSum(vals, l, h)
		if Count(vals, l, h) != n {
			return false
		}
		pos := Positions(vals, l, h, nil)
		if len(pos) != n {
			return false
		}
		var ps int64
		for _, p := range pos {
			v := vals[p]
			if v < l || v >= h {
				return false
			}
			ps += v
		}
		return ps == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScan1M(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	vals := make([]int64, 1<<20)
	for i := range vals {
		vals[i] = rng.Int64N(1 << 30)
	}
	b.SetBytes(int64(len(vals) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CountSum(vals, 1<<28, 1<<28+1<<24)
	}
}
