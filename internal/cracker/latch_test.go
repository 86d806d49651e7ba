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
// strictly inside those same regions. A crack permutes values within the
// region it is reading, so any read that overlapped a partition would see a
// value twice or not at all; every (count, sum) must equal the prefix-sum
// oracle. Run with -race.
func TestReadersExactWhileCrackingInsideRegions(t *testing.T) {
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

	ix := newTestIndex(vals)
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
					ix.CrackAt(r.lo + 1 + grng.Int64N(r.hi-r.lo-1))
				} else {
					ix.RandomCrackInRange(grng, r.lo, r.hi, 0)
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

// piecedIndex builds an index over the n values 0, 4, 8, ... whose whole
// value range [0, 4n) is cut into the given number of pieces by evenly
// spaced boundaries (more pieces than values means zero-width pieces, which
// a piece walk would still visit one by one).
func piecedIndex(tb testing.TB, n, pieces int) (ix *Index, lo, hi int64) {
	tb.Helper()
	vals := make([]int64, n)
	rows := make([]uint32, n)
	for i := range vals {
		vals[i] = int64(4 * i)
		rows[i] = uint32(i)
	}
	hi = int64(4 * n)
	bs := make([]Boundary, 0, pieces+1)
	for k := 0; k <= pieces; k++ {
		key := int64(k) * hi / int64(pieces)
		bs = append(bs, Boundary{Key: key, Pos: int((key + 3) / 4)})
	}
	ix, err := RestoreIndex(vals, rows, bs)
	if err != nil {
		tb.Fatal(err)
	}
	if got := ix.Pieces(); got != pieces+2 { // + the empty pieces outside [0, 4n)
		tb.Fatalf("built %d pieces, want %d", got, pieces+2)
	}
	return ix, 0, hi
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
	}); a != 0 {
		t.Fatalf("lookup + aggregate over %d fresh pieces allocates %.1f per run, want 0", regionPieces, a)
	}
}

// TestCountSumMatchesPlainLoop compares the four-accumulator aggregate with
// the one-accumulator loop it replaced: every length around the unroll width,
// every [from, to) including bounds CountSum clamps, extreme values and sums
// that wrap around.
func TestCountSumMatchesPlainLoop(t *testing.T) {
	plain := func(vals []int64, from, to int) (int, int64) {
		from, to = max(from, 0), min(to, len(vals))
		var sum int64
		for _, v := range vals[from:to] {
			sum += v
		}
		return to - from, sum
	}
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
			for from := -2; from <= n; from++ {
				for to := max(from, 0); to <= n+2; to++ {
					wc, ws := plain(vals, from, to)
					if c, s := ix.CountSum(from, to); c != wc || s != ws {
						t.Fatalf("CountSum(%d, %d) over %v = %d, %d; plain loop %d, %d", from, to, vals, c, s, wc, ws)
					}
				}
			}
		}
	}
}

var sinkSum int64

// BenchmarkCountSumPieces reads the same 40 000 values cut into 1, 1k and
// 100k pieces: the lookup-and-sum of a converged select. The sub-benchmarks
// must stay within 2x of each other — only the two boundary descents depend
// on the piece count.
func BenchmarkCountSumPieces(b *testing.B) {
	for _, pieces := range []int{1, 1000, 100000} {
		b.Run(fmt.Sprint(pieces), func(b *testing.B) {
			ix, lo, hi := piecedIndex(b, 40000, pieces)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				from, to, _ := ix.LookupRange(lo, hi)
				_, s := ix.CountSumConcurrent(from, to)
				sinkSum += s
			}
		})
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
		ix.CrackAt(rng.Int64N(domain+40) - 20)
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
