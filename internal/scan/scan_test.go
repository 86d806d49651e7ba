package scan

import (
	"math/rand/v2"
	"testing"
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
	if n, _ := CountSum([]int64{1, 2, 3}, 5, 5); n != 0 {
		t.Fatal("empty range matched")
	}
	if n, _ := CountSum([]int64{1, 2, 3}, 5, 2); n != 0 {
		t.Fatal("inverted range matched")
	}
	if _, _, ok := MinMax[int64](nil); ok {
		t.Fatal("MinMax ok on empty")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, ok := MinMax([]int64{3, -7, 12, 0})
	if !ok || lo != -7 || hi != 12 {
		t.Fatalf("MinMax = %d,%d,%v", lo, hi, ok)
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
