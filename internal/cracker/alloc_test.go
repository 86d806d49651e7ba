package cracker

import (
	"math/rand/v2"
	"testing"
)

// The predicated partition kernels must not allocate: they run on every
// crack, and a steady-state query stream would otherwise turn into a
// garbage-collection workload. AllocsPerRun re-partitions the same piece
// (already-partitioned input still walks the full cursor loop), which is
// exactly the steady state the contract covers.
func TestPartitionZeroAlloc(t *testing.T) {
	const n = 1 << 12
	rng := rand.New(rand.NewPCG(7, 9))
	v := make([]int64, n)
	r := make([]uint32, n)
	for i := range v {
		v[i] = rng.Int64N(n)
		r[i] = uint32(i)
	}
	if a := testing.AllocsPerRun(20, func() {
		partition2(v, r, 0, n, int64(n/2))
	}); a != 0 {
		t.Fatalf("partition2 allocates %.1f per run, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() {
		partition3(v, r, 0, n, int64(n/4), int64(3*n/4))
	}); a != 0 {
		t.Fatalf("partition3 allocates %.1f per run, want 0", a)
	}
}

// TestPartitionValuesZeroAlloc holds the values-only path (rows nil) to the
// same contract, once per kernel the host supports: partition2Vals, and
// the vector kernel with its scalar tail, and the narrow copy's
// partition2Off32 and partition2OffVector (partitionVec32 and its tail).
func TestPartitionValuesZeroAlloc(t *testing.T) {
	const n = 1<<12 + 5 // whole vectors and a scalar tail
	rng := rand.New(rand.NewPCG(7, 9))
	v := make([]int64, n)
	off := make([]uint32, n)
	for i := range v {
		v[i] = rng.Int64N(n)
		off[i] = uint32(v[i])
	}
	for _, k := range valuesKernels {
		t.Run(k.name, func(t *testing.T) {
			ran := withValuesKernel(k.vector, func() {
				if a := testing.AllocsPerRun(20, func() {
					partition2(v, nil, 0, n, int64(n/2))
				}); a != 0 {
					t.Fatalf("%s kernel: partition2 allocates %.1f per run, want 0", k.name, a)
				}
				if a := testing.AllocsPerRun(20, func() {
					partition3(v, nil, 0, n, int64(n/4), int64(3*n/4))
				}); a != 0 {
					t.Fatalf("%s kernel: partition3 allocates %.1f per run, want 0", k.name, a)
				}
				if a := testing.AllocsPerRun(20, func() {
					m, _ := partition2Off(off, 0, n, n/4)
					partition2Off(off, m, n, 3*n/4)
				}); a != 0 {
					t.Fatalf("%s kernel: partition2Off allocates %.1f per run, want 0", k.name, a)
				}
			})
			if !ran {
				t.Skipf("%s kernel: not supported on this CPU", k.name)
			}
		})
	}
}
