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
	rng := rand.New(rand.NewPCG(1, 1))
	if w := ix.RandomCrack(rng); w != 0 {
		t.Fatalf("RandomCrack on empty did work %d", w)
	}
	if w, ok := crackAt(ix, 5); w != 0 || ok || ix.Pieces() != 0 {
		t.Fatalf("crack at 5 on empty did work %d (%v) to %d pieces", w, ok, ix.Pieces())
	}
	if _, ok := maxPiece(ix); ok {
		t.Fatal("maxPiece on empty reported ok")
	}
}

// maxPiece returns the largest piece; ok is false for an empty index.
func maxPiece(ix *Index) (best Piece, ok bool) {
	ix.ForEachPiece(func(p Piece) bool {
		if !ok || p.Size() > best.Size() {
			best, ok = p, true
		}
		return true
	})
	return best, ok
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
	rng := rand.New(rand.NewPCG(1, 2))
	// A single-valued piece has nothing to split: no value lies below any
	// element, so a random crack does no work and adds no boundary.
	for i := 0; i < 10; i++ {
		if w := ix.RandomCrack(rng); w != 0 || ix.Pieces() != 1 {
			t.Fatalf("RandomCrack on a single-valued piece did work %d to %d pieces", w, ix.Pieces())
		}
	}
	from, to := ix.CrackRange(42, 43)
	if to-from != 100 {
		t.Fatalf("dup query count %d", to-from)
	}
	from, to = ix.CrackRange(0, 42)
	if from != to {
		t.Fatal("exclusive upper bound leaked duplicates")
	}
	// Random cracks and pinned pivots on an all-duplicate column must not
	// loop or corrupt.
	for i := 0; i < 10; i++ {
		ix.RandomCrack(rng)
		crackAt(ix, 0)
		crackAt(ix, 100)
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

// crackAt pins a boundary at v: the split a select's bound and an idle
// pivot both end in.
func crackAt(ix *Index, v int64) (pieceSize int, cracked bool) { return ix.splitAt(v) }

func TestCrackAtIdempotent(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	ix := newTestIndex(randomVals(rng, 500, 1000))
	size, cracked := crackAt(ix, 500)
	if !cracked || size != 500 {
		t.Fatalf("first crack: size=%d cracked=%v", size, cracked)
	}
	size, cracked = crackAt(ix, 500)
	if cracked || size != 0 {
		t.Fatal("second crack at same pivot was not a no-op")
	}
}

func TestRandomCracksConverge(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	ix := newTestIndex(randomVals(rng, 10000, 1<<30))
	for i := 0; i < 200; i++ {
		ix.RandomCrack(rng)
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

// TestRandomCrackPicksBySize: the pivot is a uniformly random element, so a
// piece is split in proportion to its size — one piece of 10 000 values
// beside 100 two-value pieces takes nearly every action. A sorted index and
// a piece whose values are all equal have nothing to split.
func TestRandomCrackPicksBySize(t *testing.T) {
	vals := make([]int64, 0, 10200)
	for v := int64(0); v < 10000; v++ {
		vals = append(vals, 1_000_000+v)
	}
	for k := int64(0); k < 100; k++ {
		vals = append(vals, 10*k, 10*k+5)
	}
	rng := rand.New(rand.NewPCG(61, 62))
	rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	ix := newTestIndex(vals)
	for k := int64(0); k < 100; k++ {
		ix.CrackRange(10*k, 10*k+10) // each two-value piece [10k, 10k+10)
	}
	ix.CrackRange(1_000_000, 1<<40) // the big piece
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	const actions = 100
	for i := 0; i < actions; i++ {
		before := ix.Pieces()
		w := ix.RandomCrack(rng)
		if want := before + min(w, 1); ix.Pieces() != want {
			t.Fatalf("action %d did work %d and went from %d to %d pieces", i, w, before, ix.Pieces())
		}
	}
	big := 0 // boundaries the actions put inside the big piece
	for _, b := range ix.Boundaries() {
		if b.Key > 1_000_000 && b.Key < 1<<40 {
			big++
		}
	}
	if big < actions*9/10 {
		t.Fatalf("%d of %d actions split the 10 000-value piece, want most", big, actions)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}

	ix.Sort()
	pieces := ix.Pieces()
	for i := 0; i < 20; i++ {
		if w := ix.RandomCrack(rng); w != 0 || ix.Pieces() != pieces || len(ix.Boundaries()) != 0 {
			t.Fatalf("RandomCrack on a sorted index did work %d, %d pieces, %d boundaries", w, ix.Pieces(), len(ix.Boundaries()))
		}
	}
}

// TestRandomCrackLeavesNoEmptyPiece: a pivot is always a value of the data
// and never its piece's least, so idle cracks leave no empty piece even when
// a few values sit far above a dense base — where uniform domain pivots used
// to land in the gap and crack nothing but a new empty piece.
func TestRandomCrackLeavesNoEmptyPiece(t *testing.T) {
	vals := make([]int64, 0, 1<<16+64)
	for v := int64(1); v <= 1<<16; v++ {
		vals = append(vals, v)
	}
	for k := int64(0); k < 64; k++ {
		vals = append(vals, 1<<40+k)
	}
	rng := rand.New(rand.NewPCG(71, 72))
	rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	ix := newTestIndex(vals)
	for i := 0; i < 2000; i++ {
		ix.RandomCrack(rng)
	}
	empty, nonEmpty := 0, 0
	ix.ForEachPiece(func(p Piece) bool {
		if p.Size() == 0 {
			empty++
		} else {
			nonEmpty++
		}
		return true
	})
	if empty > 0 {
		t.Errorf("%d of %d pieces are empty", empty, empty+nonEmpty)
	}
	if want := float64(ix.Len()) / float64(nonEmpty); ix.AvgPieceSize() != want {
		t.Fatalf("AvgPieceSize %.2f, %d values over %d non-empty pieces is %.2f", ix.AvgPieceSize(), ix.Len(), nonEmpty, want)
	}
	if err := ix.Validate(); err != nil {
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
		ix.RandomCrack(rng)
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
	if p, ok := maxPiece(ix); !ok || p.Size() <= 0 || ix.AvgPieceSize() <= 0 {
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
				ix.RandomCrack(rng)
				ix.RandomCrack(rng)
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
			ix.RandomCrack(rng)
			p, ok := maxPiece(ix)
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

// BenchmarkRandomCrackAction times one idle crack on 2^20 uniform values
// and on a dense base of 2^20 values with 1 024 more far above it, where
// uniform domain pivots used to fall into the empty gap. Each fresh index
// takes 20 000 actions, so both shapes are measured mid-refinement.
func BenchmarkRandomCrackAction(b *testing.B) {
	shapes := []struct {
		name string
		vals func(*rand.Rand) []int64
	}{
		{"uniform", func(rng *rand.Rand) []int64 { return randomVals(rng, 1<<20, 1<<30) }},
		{"skewed", func(rng *rand.Rand) []int64 {
			vals := make([]int64, 0, 1<<20+1024)
			for v := int64(1); v <= 1<<20; v++ {
				vals = append(vals, v)
			}
			for k := int64(0); k < 1024; k++ {
				vals = append(vals, 1<<40+k)
			}
			rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
			return vals
		}},
	}
	for _, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			rng := rand.New(rand.NewPCG(3, 3))
			base := shape.vals(rng)
			var ix *Index
			for i := 0; i < b.N; i++ {
				if i%20000 == 0 {
					b.StopTimer()
					ix = newTestIndex(base)
					b.StartTimer()
				}
				ix.RandomCrack(rng)
			}
		})
	}
}

// TestRandomCrackExtremeRange: a whereless SELECT pins boundaries at
// MinInt64 and MaxInt64, whose distance overflows int64. The idle pivot is
// drawn by position, so no value width is ever computed, and random cracks
// between the extreme boundaries still split.
func TestRandomCrackExtremeRange(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	vals := randomVals(rng, 4096, 1<<30)
	ix := newTestIndex(vals)
	crackAt(ix, -1<<63)
	crackAt(ix, 1<<63-1)
	for i := 0; i < 64; i++ {
		ix.RandomCrack(rng)
	}
	if p := ix.Pieces(); p < 32 {
		t.Fatalf("64 random cracks between extreme boundaries left %d pieces", p)
	}
	if n, s := ix.CountSum(0, 1<<30); n != len(vals) {
		t.Fatalf("index corrupted by extreme-range cracks: count %d sum %d", n, s)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}
