package cracker

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"testing"
)

// Tests of the index-latch protocol: reads are exact while cracks run inside
// the regions being read, and a read's cost — latch work, allocations, time
// — does not depend on how many pieces its region spans.

// TestReadersExactWhileCrackingInsideRegions: readers aggregate fixed,
// pre-cracked regions by position while crackers split random pivots
// strictly inside those same regions and random cracks (RandomCrack)
// anywhere in the copy. A crack permutes values within the
// region it is reading, so any read that overlapped a partition would see a
// value twice or not at all; every (count, sum) must equal the prefix-sum
// oracle. Run with -race, over a copy with row ids (the lockstep kernel),
// over a values-only copy (the vector kernel where the CPU has it, whose
// accesses -race sees only through partition_race_amd64.go) and over a
// narrow one (uint32 offsets: partitionVec32, seen the same way).
func TestReadersExactWhileCrackingInsideRegions(t *testing.T) {
	t.Run("rows", func(t *testing.T) { readersExactWhileCracking(t, newTestIndex) })
	t.Run("values", func(t *testing.T) {
		readersExactWhileCracking(t, func(vals []int64) *Index { return New(slices.Clone(vals), nil) })
	})
	t.Run("narrow", func(t *testing.T) {
		readersExactWhileCracking(t, func(vals []int64) *Index {
			ix := NewFromBase(vals, slices.Min(vals), slices.Max(vals), 0)
			if ix.off == nil {
				t.Fatal("the copy is not narrow")
			}
			return ix
		})
	})
}

func readersExactWhileCracking(t *testing.T, newIndex func([]int64) *Index) {
	const n, domain, regions, readers, crackers = 1 << 16, int64(1 << 24), 8, 4, 3
	rng := rand.New(rand.NewPCG(31, 32))
	vals := randomVals(rng, n, domain)
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	prefix := make([]int64, n+1)
	for i, v := range sorted {
		prefix[i+1] = prefix[i] + v
	}
	oracle := func(lo, hi int64) (int, int64) {
		a := sort.Search(n, func(i int) bool { return sorted[i] >= lo })
		b := sort.Search(n, func(i int) bool { return sorted[i] >= hi })
		return b - a, prefix[b] - prefix[a]
	}

	ix := newIndex(vals)
	type region struct {
		lo, hi   int64
		from, to int
		count    int
		sum      int64
	}
	rs := make([]region, regions)
	for i := range rs {
		lo := int64(i) * domain / regions
		hi := lo + domain/regions/2
		from, to := ix.CrackRange(lo, hi)
		c, s := oracle(lo, hi)
		rs[i] = region{lo, hi, from, to, c, s}
	}

	var wg sync.WaitGroup
	for g := 0; g < crackers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			grng := rand.New(rand.NewPCG(uint64(g), 33))
			for i := 0; i < 1500; i++ {
				r := rs[grng.IntN(regions)]
				if i%2 == 0 {
					crackAt(ix, r.lo+1+grng.Int64N(r.hi-r.lo-1))
				} else {
					ix.RandomCrack(grng)
				}
			}
		}(g)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			grng := rand.New(rand.NewPCG(uint64(g), 34))
			for i := 0; i < 1500; i++ {
				r := rs[grng.IntN(regions)]
				from, to := r.from, r.to
				if i%2 == 0 {
					// Boundaries never move in shared mode: the lookup must
					// keep returning the positions of the first crack.
					var ok bool
					if from, to, ok = ix.LookupRange(r.lo, r.hi); !ok || from != r.from || to != r.to {
						t.Errorf("LookupRange[%d,%d) = %d,%d,%v, want %d,%d", r.lo, r.hi, from, to, ok, r.from, r.to)
						return
					}
				}
				if c, s := ix.CountSum(from, to); c != r.count || s != r.sum {
					t.Errorf("region [%d,%d): got %d/%d, oracle %d/%d", r.lo, r.hi, c, s, r.count, r.sum)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	if ix.Pieces() < 2*regions+crackers {
		t.Fatalf("crackers did nothing: %d pieces", ix.Pieces())
	}
}

// piecedIndex builds an index over the n values 0, s, 2s, ... (s = 4, or
// wider when it takes that to keep the boundary keys distinct) whose whole
// value range [0, s*n) is cut into the given number of pieces by evenly
// spaced boundaries (more pieces than values means zero-width pieces, which
// a piece walk would still visit one by one).
func piecedIndex(tb testing.TB, n, pieces int) (ix *Index, lo, hi int64) {
	tb.Helper()
	stride := int64(max(4, (pieces+n-1)/n))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i) * stride
	}
	hi = int64(n) * stride
	bs := make([]Boundary, 0, pieces+1)
	for k := 0; k <= pieces; k++ {
		key := int64(k) * hi / int64(pieces)
		bs = append(bs, Boundary{Key: key, Pos: int((key + stride - 1) / stride)})
	}
	ix, err := RestoreIndex(slices.Clone(vals), bs, false)
	if err != nil {
		tb.Fatal(err)
	}
	if err := ix.AttachRows(vals, 0, 1, nil); err != nil { // row i at position i
		tb.Fatal(err)
	}
	if got := ix.Pieces(); got != pieces+2 { // + the empty pieces outside [0, 4n)
		tb.Fatalf("built %d pieces, want %d", got, pieces+2)
	}
	return ix, 0, hi
}

// TestRestoreConvergedGrid: a snapshot's boundary list as large as a
// converged wire_point part's, 278 530 boundaries, restores into a tree that
// passes Check (Validate runs it) and hands the same list back.
func TestRestoreConvergedGrid(t *testing.T) {
	const boundaries = 278530
	ix, _, _ := piecedIndex(t, 2*boundaries, boundaries-1)
	bs := ix.Boundaries()
	if len(bs) != boundaries {
		t.Fatalf("built %d boundaries, want %d", len(bs), boundaries)
	}
	if err := ix.tree.Check(); err != nil {
		t.Fatal(err)
	}
	again, err := RestoreIndex(slices.Clone(ix.vals), bs, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := again.AttachRows(ix.vals, 0, 1, nil); err != nil || !slices.Equal(again.rows, ix.rows) {
		t.Fatalf("the restored index attaches other row ids: %v", err)
	}
	if !slices.Equal(again.Boundaries(), bs) {
		t.Fatal("a restored index hands back a different boundary list")
	}
}

// A select on a cracked range must not allocate however many pieces the
// range spans. Every run reads a region no run has read before (the
// per-piece latch registry allocated one RWMutex per piece on first read,
// 10 000 per run here).
func TestCrackedReadZeroAlloc(t *testing.T) {
	const regionVals, regionPieces, runs = 40000, 10000, 20
	ix, _, _ := piecedIndex(t, (runs+1)*regionVals, (runs+1)*regionPieces)
	region := 0 // AllocsPerRun calls the function runs+1 times
	if a := testing.AllocsPerRun(runs, func() {
		lo := int64(region) * 4 * regionVals
		region++
		from, to, ok := ix.LookupRange(lo, lo+4*regionVals)
		if c, _ := ix.CountSumConcurrent(from, to); !ok || c != regionVals {
			t.Fatalf("read %d values (hit %v), want %d", c, ok, regionVals)
		}
		if c, _, _, ok := ix.LookupCountSum(lo, lo+4*regionVals); !ok || c != regionVals {
			t.Fatalf("looked up %d values (hit %v), want %d", c, ok, regionVals)
		}
	}); a != 0 {
		t.Fatalf("lookup + aggregate over %d fresh pieces allocates %.1f per run, want 0", regionPieces, a)
	}
}

// plainCountSum is the loop CountSum must agree with: positions clamped to
// the copy, an empty or inverted region empty.
func plainCountSum(vals []int64, from, to int) (int, int64) {
	count, sum := 0, int64(0)
	for i := max(from, 0); i < min(to, len(vals)); i++ {
		count, sum = count+1, sum+vals[i]
	}
	return count, sum
}

// TestCountSumAnyPositions: CountSum answers from boundary sums, but its
// contract is positional — any [from, to), not only boundary positions. On a
// five-value index cracked once, so position 2 is a boundary and the others
// are not: negative, inverted, past-the-end (CountSum(10, 20) used to slice
// vals[10:5] and panic) and ragged positions, each against the plain loop.
func TestCountSumAnyPositions(t *testing.T) {
	ix := newTestIndex([]int64{50, 10, 40, 20, 30})
	crackAt(ix, 25)
	if pos, _, _, ok := ix.tree.Locate(25, len(ix.vals)); !ok || pos != 2 {
		t.Fatalf("crack at 25 landed on position %d (found %v), want 2", pos, ok)
	}
	for _, c := range []struct {
		name     string
		from, to int
	}{
		{"whole copy", 0, 5},
		{"boundary to end", 2, 5},
		{"start to boundary", 0, 2},
		{"negative from", -3, 2},
		{"to past the end", 2, 99},
		{"both past the end", 10, 20},
		{"from at the end", 5, 9},
		{"both negative", -9, -1},
		{"inverted", 4, 1},
		{"inverted across the boundary", 3, 2},
		{"empty at the boundary", 2, 2},
		{"ragged below the boundary", 1, 2},
		{"ragged above the boundary", 2, 4},
		{"ragged both sides", 1, 4},
		{"ragged inside one piece", 3, 4},
	} {
		wc, ws := plainCountSum(ix.AppendValues(nil), c.from, c.to)
		if gc, gs := ix.CountSum(c.from, c.to); gc != wc || gs != ws {
			t.Errorf("%s: CountSum(%d, %d) = %d, %d; plain loop %d, %d", c.name, c.from, c.to, gc, gs, wc, ws)
		}
	}
}

// TestCountSumMatchesPlainLoop compares the aggregate with a one-accumulator
// loop: every length around sumVals' unroll width, every [from, to) —
// bounds CountSum clamps and inverted ones included — extreme values and sums
// that wrap around, on an uncracked copy (all ragged edge) and again after a
// few cracks (boundary sums plus ragged edges).
func TestCountSumMatchesPlainLoop(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 44))
	extremes := []int64{math.MinInt64, math.MaxInt64, -1, 0, 1, math.MaxInt64 - 1, math.MinInt64 + 1}
	for n := 0; n <= 9; n++ {
		for trial := 0; trial < 50; trial++ {
			vals := make([]int64, n)
			for i := range vals {
				if trial%2 == 0 {
					vals[i] = extremes[rng.IntN(len(extremes))] // sums wrap
				} else {
					vals[i] = rng.Int64() - rng.Int64()
				}
			}
			ix := newTestIndex(vals)
			for _, cracks := range []int{0, 3} {
				for i := 0; i < cracks && n > 0; i++ {
					crackAt(ix, vals[rng.IntN(n)])
				}
				for from := -2; from <= n+2; from++ {
					for to := -2; to <= n+2; to++ {
						wc, ws := plainCountSum(ix.AppendValues(nil), from, to)
						if c, s := ix.CountSum(from, to); c != wc || s != ws {
							t.Fatalf("CountSum(%d, %d) over %v = %d, %d; plain loop %d, %d", from, to, ix.AppendValues(nil), c, s, wc, ws)
						}
					}
				}
			}
		}
	}
}

// TestValidateCatchesCorruptSum: Validate re-derives every boundary sum, so
// one boundary whose sum is off by one fails it — and nothing else does.
func TestValidateCatchesCorruptSum(t *testing.T) {
	rng := rand.New(rand.NewPCG(45, 46))
	ix := newTestIndex(randomVals(rng, 1000, 1<<12))
	for i := 0; i < 20; i++ {
		ix.RandomCrack(rng)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	bs := ix.Boundaries()
	b := bs[len(bs)/2]
	_, _, sum, _ := ix.tree.Locate(b.Key, len(ix.vals))
	ix.tree.Insert(b.Key, b.Pos, sum+1)
	if err := ix.Validate(); err == nil {
		t.Fatalf("Validate passed with boundary %d carrying sum %d instead of %d", b.Key, sum+1, sum)
	}
	ix.tree.Insert(b.Key, b.Pos, sum)
	if err := ix.Validate(); err != nil {
		t.Fatalf("Validate after repairing the sum: %v", err)
	}
}

var sinkSum int64

// BenchmarkCountSumPieces is the converged select's aggregate: both bounds
// are crack boundaries, with 16 to 1M values between them cut into 1, 1k and
// 100k pieces. ns/op must be flat in the width — the answer is two boundary
// sums, no value is read — depend on the piece count only through the two
// tree descents, and allocate nothing.
func BenchmarkCountSumPieces(b *testing.B) {
	for _, width := range []int{16, 4096, 40000, 1000000} {
		for _, pieces := range []int{1, 1000, 100000} {
			b.Run(fmt.Sprintf("width=%d/pieces=%d", width, pieces), func(b *testing.B) {
				ix, lo, hi := piecedIndex(b, width, pieces)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, s, _, _ := ix.LookupCountSum(lo, hi)
					sinkSum += s
				}
			})
		}
	}
}

// RangePieceAvg descends to the range instead of walking every piece; it
// must agree with the full piece walk it replaced.
func TestRangePieceAvgMatchesPieceWalk(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	const domain = int64(1 << 12)
	ix := newTestIndex(randomVals(rng, 5000, domain))
	if got := ix.RangePieceAvg(0, domain); got != 5000 {
		t.Fatalf("uncracked index: avg %f, want the whole column", got)
	}
	for i := 0; i < 300; i++ {
		crackAt(ix, rng.Int64N(domain+40)-20)
	}
	for i := 0; i < 2000; i++ {
		lo := rng.Int64N(domain+40) - 20
		hi := lo + rng.Int64N(domain/8) - 2 // sometimes empty or inverted
		pieces, total := 0, 0
		if lo < hi {
			ix.ForEachPiece(func(p Piece) bool {
				if (!p.HasHi || p.Hi > lo) && (!p.HasLo || p.Lo < hi) {
					pieces++
					total += p.Size()
				}
				return true
			})
		}
		want := 0.0
		if pieces > 0 {
			want = float64(total) / float64(pieces)
		}
		if got := ix.RangePieceAvg(lo, hi); got != want {
			t.Fatalf("RangePieceAvg[%d,%d) = %f, piece walk says %f (%d pieces)", lo, hi, got, want, pieces)
		}
	}
}
