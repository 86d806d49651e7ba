package scan

import (
	"math/rand/v2"
	"testing"
)

// The branchless scan loop must not allocate.
func TestScanZeroAlloc(t *testing.T) {
	const n = 1 << 12
	rng := rand.New(rand.NewPCG(3, 5))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int64N(n)
	}
	lo, hi := int64(n/4), int64(3*n/4)
	if a := testing.AllocsPerRun(20, func() {
		CountSum(vals, lo, hi)
	}); a != 0 {
		t.Fatalf("CountSum allocates %.1f per run, want 0", a)
	}
}
