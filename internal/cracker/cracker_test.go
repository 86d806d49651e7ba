package cracker

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

// newTestIndex builds an index over a copy of vals with identity row ids.
func newTestIndex(vals []int64) *Index {
	v := make([]int64, len(vals))
	copy(v, vals)
	rows := make([]uint32, len(vals))
	for i := range rows {
		rows[i] = uint32(i)
	}
	return New(v, rows)
}

// naiveRange returns count and sum of vals in [lo, hi) — the oracle.
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

func randomVals(rng *rand.Rand, n int, domain int64) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int64N(domain)
	}
	return vals
}

func TestEmptyIndex(t *testing.T) {
	ix := newTestIndex(nil)
	if ix.Pieces() != 0 || ix.Len() != 0 {
		t.Fatalf("empty index: pieces=%d len=%d", ix.Pieces(), ix.Len())
	}
	if from, to := ix.CrackRange(1, 10); from != 0 || to != 0 {
		t.Fatalf("CrackRange on empty = %d,%d", from, to)
	}
	if _, _, ok := ix.Domain(); ok {
		t.Fatal("Domain reported ok on empty index")
	}
	rng := rand.New(rand.NewPCG(1, 1))
	if w := ix.randomCrackDomain(rng); w != 0 {
		t.Fatalf("randomCrackDomain on empty did work %d", w)
	}
	if _, ok := ix.MaxPiece(); ok {
		t.Fatal("MaxPiece on empty reported ok")
	}
}

func TestInvertedAndEmptyRange(t *testing.T) {
	ix := newTestIndex([]int64{5, 3, 8, 1})
	for _, r := range [][2]int64{{10, 10}, {10, 5}, {0, 0}} {
		from, to := ix.CrackRange(r[0], r[1])
		if from != to {
			t.Fatalf("range [%d,%d) not empty: %d,%d", r[0], r[1], from, to)
		}
	}
	if ix.Cracks() != 0 {
		t.Fatalf("degenerate ranges caused %d cracks", ix.Cracks())
	}
}

func TestSingleQueryCrackInThree(t *testing.T) {
	vals := []int64{9, 2, 7, 4, 6, 1, 8, 3, 5, 0}
	ix := newTestIndex(vals)
	from, to := ix.CrackRange(3, 7) // values 3,4,5,6
	if got := to - from; got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	if ix.Pieces() != 3 {
		t.Fatalf("pieces = %d, want 3 after crack-in-three", ix.Pieces())
	}
	_, sum := ix.CountSum(from, to)
	if sum != 3+4+5+6 {
		t.Fatalf("sum = %d", sum)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatQueryIsPureLookup(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	ix := newTestIndex(randomVals(rng, 1000, 1000))
	ix.CrackRange(100, 200)
	cracks := ix.Cracks()
	work := ix.Work()
	from, to := ix.CrackRange(100, 200)
	if ix.Cracks() != cracks || ix.Work() != work {
		t.Fatal("repeat query did partitioning work")
	}
	n, _ := ix.CountSum(from, to)
	wantN, _ := naiveRange(ix.Values(), 100, 200)
	if n != wantN {
		t.Fatalf("repeat count %d want %d", n, wantN)
	}
}

func TestOverlappingQueriesShareBoundaries(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	base := randomVals(rng, 2000, 5000)
	ix := newTestIndex(base)
	queries := [][2]int64{{100, 900}, {500, 1500}, {800, 820}, {0, 5000}, {4999, 5001}}
	for _, q := range queries {
		from, to := ix.CrackRange(q[0], q[1])
		n, s := ix.CountSum(from, to)
		wn, ws := naiveRange(base, q[0], q[1])
		if n != wn || s != ws {
			t.Fatalf("query [%d,%d): got %d/%d want %d/%d", q[0], q[1], n, s, wn, ws)
		}
		if err := ix.Validate(); err != nil {
			t.Fatalf("after query [%d,%d): %v", q[0], q[1], err)
		}
	}
}

func TestBoundsOutsideDomain(t *testing.T) {
	vals := []int64{10, 20, 30}
	ix := newTestIndex(vals)
	from, to := ix.CrackRange(-100, 100)
	if to-from != 3 {
		t.Fatalf("full-domain query returned %d values", to-from)
	}
	from, to = ix.CrackRange(100, 200)
	if from != to {
		t.Fatalf("above-domain query returned %d values", to-from)
	}
	from, to = ix.CrackRange(-200, -100)
	if from != to {
		t.Fatalf("below-domain query returned %d values", to-from)
	}
}

func TestAllDuplicates(t *testing.T) {
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = 42
	}
	ix := newTestIndex(vals)
	from, to := ix.CrackRange(42, 43)
	if to-from != 100 {
		t.Fatalf("dup query count %d", to-from)
	}
	from, to = ix.CrackRange(0, 42)
	if from != to {
		t.Fatal("exclusive upper bound leaked duplicates")
	}
	rng := rand.New(rand.NewPCG(1, 2))
	// Random cracks on an all-duplicate column must not loop or corrupt.
	for i := 0; i < 10; i++ {
		ix.randomCrackDomain(rng)
		ix.randomCrackLargest(rng)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleElement(t *testing.T) {
	ix := newTestIndex([]int64{7})
	if from, to := ix.CrackRange(7, 8); to-from != 1 {
		t.Fatal("single element not found")
	}
	if from, to := ix.CrackRange(8, 9); from != to {
		t.Fatal("phantom element")
	}
}

func TestRowIDsFollowValues(t *testing.T) {
	base := []int64{50, 10, 40, 20, 30}
	ix := newTestIndex(base)
	from, to := ix.CrackRange(20, 45)
	got := map[uint32]int64{}
	for i := from; i < to; i++ {
		got[ix.Rows()[i]] = ix.Values()[i]
	}
	// Row ids must still map to their original base values.
	for r, v := range got {
		if base[r] != v {
			t.Fatalf("row %d carries %d, base holds %d", r, v, base[r])
		}
	}
	want := map[uint32]bool{2: true, 3: true, 4: true} // 40, 20, 30
	if len(got) != len(want) {
		t.Fatalf("got rows %v", got)
	}
	for r := range want {
		if _, ok := got[r]; !ok {
			t.Fatalf("missing row %d", r)
		}
	}
}

func TestCrackAtIdempotent(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	ix := newTestIndex(randomVals(rng, 500, 1000))
	size, cracked := ix.crackAt(500)
	if !cracked || size != 500 {
		t.Fatalf("first crack: size=%d cracked=%v", size, cracked)
	}
	size, cracked = ix.crackAt(500)
	if cracked || size != 0 {
		t.Fatal("second crack at same pivot was not a no-op")
	}
}

func TestRandomCracksConverge(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	ix := newTestIndex(randomVals(rng, 10000, 1<<30))
	for i := 0; i < 200; i++ {
		ix.randomCrackDomain(rng)
	}
	if p := ix.Pieces(); p < 150 {
		t.Fatalf("only %d pieces after 200 random cracks", p)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	// Average piece size must have dropped accordingly.
	if avg := ix.AvgPieceSize(); avg > 10000/150.0+1 {
		t.Fatalf("avg piece size %f", avg)
	}
}

func TestRandomCrackLargestTargetsLargest(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	ix := newTestIndex(randomVals(rng, 4096, 1<<20))
	before, _ := ix.MaxPiece()
	if ix.randomCrackLargest(rng) == 0 {
		t.Fatal("largest-piece crack did no work")
	}
	after, _ := ix.MaxPiece()
	if after.Size() > before.Size() {
		t.Fatal("max piece grew")
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

// RandomCrack and RefineRange are the tuner's crack and speculative steps
// moved into the index: the same pivots from the same random numbers, the
// same work and pieces as the sequences they replace.
func TestRandomCrackIsDomainPivotsThenLargest(t *testing.T) {
	vals := randomVals(rand.New(rand.NewPCG(41, 42)), 1<<12, 1<<8) // a small domain runs out of pivots
	got, want := newTestIndex(vals), newTestIndex(vals)
	rg, rw := rand.New(rand.NewPCG(43, 44)), rand.New(rand.NewPCG(43, 44))
	for i := 0; i < 400; i++ {
		w := 0
		for a := 0; a < 3 && w == 0; a++ {
			w = want.randomCrackDomain(rw)
		}
		if w == 0 {
			w = want.randomCrackLargest(rw)
		}
		if g := got.RandomCrack(rg); g != w || got.Pieces() != want.Pieces() {
			t.Fatalf("action %d: RandomCrack did %d work to %d pieces, the old step %d to %d", i, g, got.Pieces(), w, want.Pieces())
		}
	}
}

func TestRefineRangePinsBoundsThenCracksInside(t *testing.T) {
	vals := randomVals(rand.New(rand.NewPCG(51, 52)), 1<<14, 1<<20)
	got, want := newTestIndex(vals), newTestIndex(vals)
	rg, rw := rand.New(rand.NewPCG(53, 54)), rand.New(rand.NewPCG(53, 54))
	lo, hi := int64(1<<18), int64(1<<18+1<<16)
	for step := 0; step < 20; step++ {
		w, _ := want.crackAt(lo)
		w2, _ := want.crackAt(hi)
		for i := 0; i < 8 && want.RangePieceAvg(lo, hi) > 64; i++ {
			w2 += want.randomCrackInRange(rw, lo, hi, 64)
		}
		if g := got.RefineRange(rg, lo, hi, 64, 8); g != w+w2 || got.Pieces() != want.Pieces() {
			t.Fatalf("step %d: RefineRange did %d work to %d pieces, the old step %d to %d", step, g, got.Pieces(), w+w2, want.Pieces())
		}
	}
	if _, _, _, ok := got.LookupCountSum(lo, hi); !ok || got.RangePieceAvg(lo, hi) > 64 {
		t.Fatalf("bounds pinned %v, range avg piece %f: want pinned and <= 64", ok, got.RangePieceAvg(lo, hi))
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestForEachPieceTilesArray(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	ix := newTestIndex(randomVals(rng, 3000, 10000))
	for i := 0; i < 50; i++ {
		lo := rng.Int64N(10000)
		ix.CrackRange(lo, lo+rng.Int64N(500)+1)
	}
	next := 0
	count := 0
	ix.ForEachPiece(func(p Piece) bool {
		if p.Start != next {
			t.Fatalf("piece gap: start %d, want %d", p.Start, next)
		}
		if p.End < p.Start {
			t.Fatalf("negative piece [%d,%d)", p.Start, p.End)
		}
		next = p.End
		count++
		return true
	})
	if next != ix.Len() {
		t.Fatalf("pieces do not cover array: ended at %d of %d", next, ix.Len())
	}
	if count != ix.Pieces() {
		t.Fatalf("ForEachPiece visited %d, Pieces() says %d", count, ix.Pieces())
	}
}

func TestForEachPieceEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 44))
	ix := newTestIndex(randomVals(rng, 1000, 1000))
	for i := 0; i < 20; i++ {
		ix.randomCrackDomain(rng)
	}
	visited := 0
	ix.ForEachPiece(func(p Piece) bool {
		visited++
		return visited < 3
	})
	if visited != 3 {
		t.Fatalf("early stop visited %d", visited)
	}
}

func TestStats(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 52))
	ix := newTestIndex(randomVals(rng, 1000, 1<<20))
	ix.CrackRange(1000, 2000)
	if ix.Len() != 1000 || ix.Pieces() != ix.Cracks()+1 {
		t.Fatalf("len %d, %d pieces from %d cracks", ix.Len(), ix.Pieces(), ix.Cracks())
	}
	if p, ok := ix.MaxPiece(); !ok || p.Size() <= 0 || ix.AvgPieceSize() <= 0 {
		t.Fatalf("stats degenerate: max piece %+v, avg %f", p, ix.AvgPieceSize())
	}
	if ix.Work() <= 0 {
		t.Fatal("no work recorded")
	}
}

// TestPropertyCrackingEquivalence is the master property: any sequence of
// range queries over any data returns exactly what a naive scan returns, and
// the cracked copy remains a permutation of the base data with valid
// structure throughout.
func TestPropertyCrackingEquivalence(t *testing.T) {
	f := func(seed uint64, nRaw uint16, qRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
		n := int(nRaw%2000) + 1
		domain := int64(1 + rng.Int64N(3000))
		base := randomVals(rng, n, domain)
		ix := newTestIndex(base)

		baseSorted := make([]int64, n)
		copy(baseSorted, base)
		sort.Slice(baseSorted, func(i, j int) bool { return baseSorted[i] < baseSorted[j] })

		queries := int(qRaw%40) + 1
		for q := 0; q < queries; q++ {
			lo := rng.Int64N(domain+100) - 50
			hi := lo + rng.Int64N(domain/2+1)
			from, to := ix.CrackRange(lo, hi)
			cnt, sum := ix.CountSum(from, to)
			wc, ws := naiveRange(base, lo, hi)
			if cnt != wc || sum != ws {
				return false
			}
			// Every returned value must satisfy the predicate.
			for i := from; i < to; i++ {
				if v := ix.Values()[i]; v < lo || v >= hi {
					return false
				}
			}
			if ix.Validate() != nil {
				return false
			}
			// Interleave idle-style random cracks.
			if q%3 == 0 {
				ix.randomCrackDomain(rng)
				ix.randomCrackInRange(rng, lo, hi, 0)
			}
		}
		// Permutation invariant: cracked copy is the base data, reordered.
		got := make([]int64, n)
		copy(got, ix.Values())
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		for i := range got {
			if got[i] != baseSorted[i] {
				return false
			}
		}
		// Row ids still map to original values.
		for i, r := range ix.Rows() {
			if base[r] != ix.Values()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPiecesShrinkMonotonically(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		ix := newTestIndex(randomVals(rng, 1000, 1<<16))
		prevMax := ix.Len()
		for i := 0; i < 60; i++ {
			ix.randomCrackLargest(rng)
			p, ok := ix.MaxPiece()
			if !ok {
				return false
			}
			if p.Size() > prevMax {
				return false // max piece may never grow
			}
			prevMax = p.Size()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCrackFirstQuery(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	base := randomVals(rng, 1<<20, 1<<30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix := newTestIndex(base)
		b.StartTimer()
		ix.CrackRange(1<<29, 1<<29+1<<24)
	}
}

func BenchmarkCrackConvergedLookup(b *testing.B) {
	rng := rand.New(rand.NewPCG(2, 2))
	ix := newTestIndex(randomVals(rng, 1<<20, 1<<30))
	for i := 0; i < 10000; i++ {
		lo := rng.Int64N(1 << 30)
		ix.CrackRange(lo, lo+1<<20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Int64N(1 << 30)
		ix.CrackRange(lo, lo+1<<20)
	}
}

func BenchmarkRandomCrackAction(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 3))
	ix := newTestIndex(randomVals(rng, 1<<20, 1<<30))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.randomCrackDomain(rng)
	}
}

// TestRandomCrackExtremeRange is the regression for the whereless-SELECT
// boost: [MinInt64, MaxInt64) made hi-lo wrap negative and panic inside
// Int64N. The sampler must treat the width as unsigned and still produce
// useful cracks.
func TestRandomCrackExtremeRange(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	vals := randomVals(rng, 4096, 1<<30)
	ix := newTestIndex(vals)
	worked := 0
	for i := 0; i < 64; i++ {
		worked += ix.randomCrackInRange(rng, -1<<63, 1<<63-1, 0)
	}
	if worked == 0 {
		t.Fatal("64 full-range random cracks did no work")
	}
	if n, s := ix.CountSum(0, 1<<30); n != len(vals) {
		t.Fatalf("index corrupted by extreme-range cracks: count %d sum %d", n, s)
	}
}
