// Package scratch provides pooled scratch buffers for the kernel's
// out-of-place hot path, the radix coarse-cracking pass over a piece
// (package cracker). That pass needs a values buffer and a row-id buffer the
// size of the piece being reorganised; allocating them per call would put
// multi-megabyte garbage on every radix crack. (A cracked copy built from a
// base column keeps what it scatters into; see cracker.NewFromBase.)
//
// Buffers are recycled through sync.Pools keyed by power-of-two size class,
// so a steady-state workload — cracking pieces of similar sizes over and
// over — performs zero allocations: the pool hands back the same arrays.
// The pooled unit is a *Buf pointer (a pointer stored in an interface does
// not allocate), so Get/Put themselves are allocation-free once the pool is
// warm. Distinct size classes keep a burst of small requests from pinning
// huge buffers and vice versa.
package scratch

import (
	"math/bits"
	"sync"
)

// classes is the number of power-of-two size classes. Class c holds buffers
// of capacity 1<<c, so 48 classes cover every slice Go can allocate.
const classes = 48

// Buf is one pooled scratch pair: values and row ids of equal length, the
// shape every out-of-place kernel pass scatters into. Contents are
// unspecified on Get; callers must not assume zeroing.
type Buf struct {
	V []int64
	R []uint32

	class int
}

var pools [classes]sync.Pool

// class returns the size class for a request of n elements: the smallest c
// with 1<<c >= n.
func class(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Get returns a scratch pair of length n from the pool. Release it with Put
// when done; the caller must not use it afterwards.
func Get(n int) *Buf {
	c := class(n)
	if v := pools[c].Get(); v != nil {
		b := v.(*Buf)
		b.V = b.V[:n]
		b.R = b.R[:n]
		return b
	}
	return &Buf{V: make([]int64, n, 1<<c), R: make([]uint32, n, 1<<c), class: c}
}

// Put recycles a pair obtained from Get. The guard is always true for a Buf
// that came from Get; it exists so the pool lookup needs no bounds check at
// Put's inlined call sites.
func Put(b *Buf) {
	if c := b.class; uint(c) < uint(len(pools)) {
		pools[c].Put(b)
	}
}

// Adopt recycles caller-owned arrays through a Buf whose own arrays the
// caller has permanently taken — the tail end of a buffer swap, where a
// kernel pass keeps the pooled arrays it scattered into (instead of copying
// back) and donates its displaced arrays to the pool. The donated pair is
// filed under the largest power-of-two class both capacities cover, so a
// later Get of that class can never index past either capacity. Reusing the
// Buf header keeps the whole swap allocation-free.
func Adopt(b *Buf, v []int64, r []uint32) {
	n := cap(v)
	if c := cap(r); c < n {
		n = c
	}
	if n == 0 {
		return
	}
	c := bits.Len(uint(n)) - 1 // largest class with 1<<c <= n
	if uint(c) >= uint(len(pools)) {
		return
	}
	b.V, b.R, b.class = v[:1<<c], r[:1<<c], c
	pools[c].Put(b)
}
