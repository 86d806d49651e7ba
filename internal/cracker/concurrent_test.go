package cracker

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentCrackAndRead hammers one index from many goroutines —
// cracking selects, random refinements, aggregations and MinRowOf point
// reads of values drawn from the data, so they land in the pieces random
// refinements crack, in proportion to size — and checks every answer
// exactly against a naive oracle, then the invariants. Run with -race.
func TestConcurrentCrackAndRead(t *testing.T) {
	const n, domain, gs = 40000, int64(1 << 18), 8
	rng := rand.New(rand.NewPCG(5, 6))
	vals := make([]int64, n)
	rows := make([]uint32, n)
	for i := range vals {
		vals[i] = rng.Int64N(domain)
		rows[i] = uint32(i)
	}
	orig := append([]int64(nil), vals...)
	live := func(row uint32) bool { return row%5 != 0 }
	minLive := map[int64]uint32{} // value -> lowest live row holding it
	for i, v := range orig {
		if r, ok := minLive[v]; live(uint32(i)) && (!ok || uint32(i) < r) {
			minLive[v] = uint32(i)
		}
	}
	ix := New(vals, rows)
	ix.SetRadixMinPiece(n / 4) // the first touches scatter, later ones split

	var wg sync.WaitGroup
	errCh := make(chan error, gs)
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			grng := rand.New(rand.NewPCG(uint64(g), 9))
			for i := 0; i < 400; i++ {
				switch i % 4 {
				case 0, 1: // cracking select, by position and by boundary sums
					lo := grng.Int64N(domain)
					hi := lo + grng.Int64N(domain/64) + 1
					var c int
					var s int64
					if i%4 == 0 {
						from, to := ix.CrackRangeConcurrent(lo, hi)
						c, s = ix.CountSumConcurrent(from, to)
					} else {
						c, s = ix.CrackCountSum(lo, hi)
					}
					wc, ws := naiveCountSum(orig, lo, hi)
					if c != wc || s != ws {
						errCh <- &rangeMismatch{lo, hi, c, wc, s, ws}
						return
					}
				case 2: // idle refinement
					ix.RandomCrack(grng)
					ix.RandomCrack(grng)
				case 3: // a DELETE's point read, of a value held or not
					v := orig[grng.IntN(n)]
					if i%8 == 7 {
						v = -1 - v
					}
					want, wantOK := minLive[v]
					if r, ok := ix.MinRowOf(v, live); ok != wantOK || r != want {
						errCh <- fmt.Errorf("MinRowOf(%d) = %d, %v; oracle %d, %v", v, r, ok, want, wantOK)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	if c, s := ix.CountSum(0, ix.Len()); c != n || s != sumInt64(orig) {
		t.Fatalf("values lost: count %d sum %d, want %d and %d", c, s, n, sumInt64(orig))
	}
	if p := ix.Pieces(); p < gs {
		t.Fatalf("suspiciously few pieces after concurrent storm: %d", p)
	}
}

type rangeMismatch struct {
	lo, hi int64
	c, wc  int
	s, ws  int64
}

func (m *rangeMismatch) Error() string {
	return fmt.Sprintf("concurrent range [%d, %d): %d/%d, oracle %d/%d", m.lo, m.hi, m.c, m.s, m.wc, m.ws)
}

// TestConcurrentCrackSamePivot: many goroutines cracking at the same pivot
// must produce exactly one boundary and no duplicated work.
func TestConcurrentCrackSamePivot(t *testing.T) {
	const n, domain = 10000, int64(1 << 16)
	rng := rand.New(rand.NewPCG(7, 8))
	vals := make([]int64, n)
	rows := make([]uint32, n)
	for i := range vals {
		vals[i] = rng.Int64N(domain)
		rows[i] = uint32(i)
	}
	ix := New(vals, rows)

	var wg sync.WaitGroup
	var cracked sync.Map
	const pivot = domain / 3
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, ok := crackAt(ix, pivot); ok {
				cracked.Store(g, true)
			}
		}(g)
	}
	wg.Wait()

	winners := 0
	cracked.Range(func(_, _ any) bool { winners++; return true })
	if winners != 1 {
		t.Fatalf("%d goroutines think they cracked pivot %d, want exactly 1", winners, pivot)
	}
	if got := ix.Cracks(); got != 1 {
		t.Fatalf("crack counter %d, want 1", got)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLookupRange covers the read-only fast path used by selects on
// already-cracked ranges.
func TestLookupRange(t *testing.T) {
	ix, orig := fuzzSeedIndex(1000, 1<<10)
	if _, _, ok := ix.LookupRange(10, 20); ok {
		t.Fatal("LookupRange hit before any crack")
	}
	from, to := ix.CrackRange(10, 20)
	f2, t2, ok := ix.LookupRange(10, 20)
	if !ok || f2 != from || t2 != to {
		t.Fatalf("LookupRange after crack: %d,%d,%v want %d,%d,true", f2, t2, ok, from, to)
	}
	c, s := ix.CountSumConcurrent(f2, t2)
	wc, ws := naiveCountSum(orig, 10, 20)
	if c != wc || s != ws {
		t.Fatalf("fast path answer %d/%d, oracle %d/%d", c, s, wc, ws)
	}
	if _, _, ok := ix.LookupRange(20, 10); ok {
		t.Fatal("inverted range must miss")
	}
}

// TestCrackParksOnlyItsPiece: a crack holds its piece's stripe, not the
// index, while it partitions. A test hook parks one crack inside its
// partition. While it is parked a crack of another piece completes, a lookup
// of a cracked range completes, and a crack of the parked piece waits on the
// stripe — read off the goroutine dump, not a clock — until the hook lets
// the parked crack go. Every answer is checked against the oracle.
func TestCrackParksOnlyItsPiece(t *testing.T) {
	const n, domain = 1 << 14, int64(1 << 20)
	orig := randomVals(rand.New(rand.NewPCG(41, 42)), n, domain)
	ix := newTestIndex(orig)
	check := func(what string, lo, hi int64, c int, s int64) {
		t.Helper()
		if wc, ws := naiveRange(orig, lo, hi); c != wc || s != ws {
			t.Errorf("%s [%d, %d) = %d/%d, oracle %d/%d", what, lo, hi, c, s, wc, ws)
		}
	}
	// Pieces: [0, domain/2) alone, cracked [domain/2, 5/8), [5/8, 3/4) and
	// the rest above.
	const mid, up, top = domain / 2, domain/2 + domain/8, domain/2 + domain/4
	ix.CrackRange(mid, up)
	ix.CrackRange(up, top)
	lower, _, _, _ := ix.locateShared(0)
	other, _, _, _ := ix.locateShared(top)
	if stripeOf(lower) == stripeOf(other) {
		t.Fatalf("pieces at %d and %d share a stripe: pick other bounds", lower, other)
	}

	parked, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	ix.testHookCrack = func() {
		if calls.Add(1) == 1 {
			close(parked)
			<-release
		}
	}
	var releaseOnce sync.Once
	letGo := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(letGo)

	parkedDone := make(chan struct{})
	go func() {
		defer close(parkedDone)
		c, s := ix.CrackCountSum(domain/8, domain/4)
		check("parked crack", domain/8, domain/4, c, s)
	}()
	<-parked

	c, s := ix.CrackCountSum(top+domain/16, top+domain/8)
	check("crack of another piece", top+domain/16, top+domain/8, c, s)
	c, s, _, ok := ix.LookupCountSum(mid, up)
	if !ok {
		t.Fatal("LookupCountSum of a cracked range declined while a crack was parked")
	}
	check("lookup", mid, up, c, s)

	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		c, s := ix.CrackCountSum(domain/32, domain/16)
		check("crack of the parked piece", domain/32, domain/16, c, s)
	}()
	buf := make([]byte, 1<<20)
	for blocked := false; !blocked; {
		select {
		case <-waiterDone:
			t.Fatal("a crack of the parked piece returned while the parked crack held it")
		default:
		}
		dump := string(buf[:runtime.Stack(buf, true)])
		for _, g := range strings.Split(dump, "\n\n") {
			blocked = blocked || strings.Contains(g, "[sync.Mutex.Lock") && strings.Contains(g, "cracker.(*Index).lock2")
		}
		runtime.Gosched()
	}
	select {
	case <-waiterDone:
		t.Fatal("a crack of the parked piece returned while the parked crack held it")
	default:
	}
	letGo()
	<-parkedDone
	<-waiterDone
	if got := calls.Load(); got != 3 {
		t.Fatalf("the hook ran %d times, want 3 cracks", got)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	if c, s := ix.CountSum(0, n); c != n || s != sumInt64(orig) {
		t.Fatalf("values lost: %d/%d", c, s)
	}
}
