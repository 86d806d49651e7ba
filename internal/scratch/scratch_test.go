package scratch

import "testing"

func TestGetPutShapes(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 8, 1000, 1 << 16} {
		b := Get(n)
		if len(b.V) != n || len(b.R) != n {
			t.Fatalf("Get(%d): lengths %d/%d", n, len(b.V), len(b.R))
		}
		if cap(b.V) < n || cap(b.R) < n {
			t.Fatalf("Get(%d): capacities %d/%d below request", n, cap(b.V), cap(b.R))
		}
		Put(b)
	}
}

func TestGetReusesPut(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool reuse is deliberately randomised under -race")
	}
	b := Get(100)
	b.V[0] = 42
	Put(b)
	// Same size class: the pool should hand the same arrays back (sync.Pool
	// gives no hard guarantee, but single-goroutine Put-then-Get hits the
	// private slot; treat a miss as a failure so regressions surface).
	b2 := Get(128)
	if len(b2.V) != 128 {
		t.Fatalf("Get(128) length %d", len(b2.V))
	}
	if &b2.V[0] != &b.V[0] {
		t.Fatalf("Get after Put of same class did not reuse the buffer")
	}
}

func TestAdoptRecycles(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool reuse is deliberately randomised under -race")
	}
	// A kernel pass swapped buf's arrays into its own structure and donates
	// these displaced arrays; the pool must file them under a class that both
	// capacities cover, and hand them back out.
	v := make([]int64, 100, 300)
	r := make([]uint32, 100, 280)
	Adopt(&Buf{}, v, r)
	// Largest class with 1<<c <= min(300, 280) is 256.
	b := Get(256)
	if &b.V[0] != &v[0] || &b.R[0] != &r[0] {
		t.Fatalf("Get(256) did not return the adopted arrays")
	}
	Put(b)
	if Adopt(&Buf{}, nil, nil); false {
		t.Fatal("unreachable")
	}
}

// A warm Get/Put cycle is the pool's whole point: the radix coarse pass sits
// on it, so it must not allocate in steady state.
func TestGetPutZeroAllocWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool reuse is deliberately randomised under -race")
	}
	Put(Get(1 << 12)) // warm the class
	if a := testing.AllocsPerRun(50, func() {
		Put(Get(1 << 12))
	}); a != 0 {
		t.Fatalf("warm Get/Put allocates %.1f per run, want 0", a)
	}
}
