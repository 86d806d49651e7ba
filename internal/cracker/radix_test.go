package cracker

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"holistic/internal/costmodel"
)

// buildRadixIndex returns an index over n pseudo-random values with
// radix-first cracking enabled at threshold minPiece, plus a pristine copy of
// the values for oracle checks.
func buildRadixIndex(n, minPiece int, seed uint64) (*Index, []int64) {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	vals := make([]int64, n)
	rows := make([]uint32, n)
	for i := range vals {
		vals[i] = rng.Int64N(1 << 40)
		rows[i] = uint32(i)
	}
	orig := append([]int64(nil), vals...)
	ix := New(vals, rows)
	ix.SetRadixMinPiece(minPiece)
	return ix, orig
}

// plannedBuckets is the number of buckets the fan-out rule plans for a first
// pass over vals, whose bounds are the values' own.
func plannedBuckets(vals []int64) int {
	var g buckets
	count(&g, vals, nil, len(vals), slices.Min(vals), slices.Max(vals), 0)
	return g.nb
}

func oracleCountSum(vals []int64, lo, hi int64) (int, int64) {
	c, s := 0, int64(0)
	for _, v := range vals {
		if v >= lo && v < hi {
			c++
			s += v
		}
	}
	return c, s
}

func TestRadixFirstCrackRange(t *testing.T) {
	const n = 1 << 16
	ix, orig := buildRadixIndex(n, 1<<12, 42)
	rng := rand.New(rand.NewPCG(7, 11))
	for q := 0; q < 200; q++ {
		lo := rng.Int64N(1 << 40)
		hi := lo + rng.Int64N(1<<38) + 1
		from, to := ix.CrackRange(lo, hi)
		wc, ws := oracleCountSum(orig, lo, hi)
		gc, gs := ix.CountSum(from, to)
		if gc != wc || gs != ws {
			t.Fatalf("query %d [%d,%d): got count=%d sum=%d, want count=%d sum=%d", q, lo, hi, gc, gs, wc, ws)
		}
		if err := ix.Validate(); err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
		// The first query's pass: two sweeps of the column and every planned
		// bucket registered (64 at n = 2^16).
		if q == 0 && (ix.Work() < 2*n || ix.Pieces() < plannedBuckets(orig)) {
			t.Fatalf("first query: work %d, %d pieces, want >= %d and >= %d; coarse pass did not run",
				ix.Work(), ix.Pieces(), 2*n, plannedBuckets(orig))
		}
	}
}

// TestRadixFanOutRule: a pass's fan-out is ceil(log2(n/radixBucket)) bits,
// clamped to [radixMinBits, radixMaxBits].
func TestRadixFanOutRule(t *testing.T) {
	for _, c := range []struct{ n, buckets int }{
		{1 << 30, 1 << radixMaxBits},
		{1 << 22, 4096},
		{1<<21 + 1, 4096},
		{1 << 21, 2048},
		{1 << 20, 1024},
		{costmodel.DefaultRadixMinPiece, 128},
		{4097, 8},
		{4096, 4},
		{2048, 1 << radixMinBits},
		{64, 1 << radixMinBits}, // a tiny test threshold gets the floor
	} {
		if got := 1 << fanOut(c.n); got != c.buckets {
			t.Errorf("n=%d: %d buckets, want %d", c.n, got, c.buckets)
		}
	}
}

// TestFanOutCutsSelectWork is the fan-out's gain in work units, whatever the
// host: NewFromBase over 2^22 uniform values leaves ~1k-value buckets, and
// 100 seeded 1 % selects after it partition at most a quarter of what they
// partition behind a fixed 256-way pass, and at most 0.6× what they
// partition behind the 2^11-way pass of the rule that aimed at 2^11 values.
func TestFanOutCutsSelectWork(t *testing.T) {
	const n, top = 1 << 22, 1 << 23
	const (
		fixed8 = 2823388 // these selects' work when every pass is 2^8-way
		rule11 = 406316  // ... when the rule aims at 2^11 values and stops at 11 bits
	)
	rng := rand.New(rand.NewPCG(51, 1))
	base := make([]int64, n)
	for i := range base {
		base[i] = 1 + rng.Int64N(top)
	}
	ix := NewFromBase(base, slices.Min(base), slices.Max(base), costmodel.DefaultRadixMinPiece)
	largest, _ := maxPiece(ix)
	if largest.Size() > 2*radixBucket {
		t.Fatalf("largest piece after the first touch holds %d values, want <= %d", largest.Size(), 2*radixBucket)
	}
	const width = top / 100
	for q := 0; q < 100; q++ {
		lo := 1 + rng.Int64N(top-width)
		c, s := ix.CrackCountSum(lo, lo+width)
		if q%10 == 0 {
			if wc, ws := oracleCountSum(base, lo, lo+width); c != wc || s != ws {
				t.Fatalf("query %d [%d,%d): got count=%d sum=%d, want count=%d sum=%d", q, lo, lo+width, c, s, wc, ws)
			}
		}
	}
	work := ix.Work() - 2*n
	t.Logf("largest piece after the first touch: %d values; 100 selects partitioned %d values", largest.Size(), work)
	if bound := int64(min(fixed8/4, rule11*6/10)); work > bound {
		t.Fatalf("100 selects partitioned %d values, want <= %d", work, bound)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRadixSkewedAndDuplicates(t *testing.T) {
	// Heavy skew plus duplicate runs: exercises empty buckets and the
	// termination argument (span shrinks per level even when sizes do not).
	const n = 1 << 14
	rng := rand.New(rand.NewPCG(3, 5))
	vals := make([]int64, n)
	rows := make([]uint32, n)
	for i := range vals {
		switch rng.IntN(3) {
		case 0:
			vals[i] = rng.Int64N(16) // dense duplicates at the bottom
		case 1:
			vals[i] = 1 << 50 // one huge outlier value, many copies
		default:
			vals[i] = rng.Int64N(1 << 20)
		}
		rows[i] = uint32(i)
	}
	orig := append([]int64(nil), vals...)
	ix := New(vals, rows)
	ix.SetRadixMinPiece(64)
	for q := 0; q < 100; q++ {
		lo := rng.Int64N(1 << 21)
		hi := lo + rng.Int64N(1<<20) + 1
		from, to := ix.CrackRange(lo, hi)
		wc, ws := oracleCountSum(orig, lo, hi)
		if gc, gs := ix.CountSum(from, to); gc != wc || gs != ws {
			t.Fatalf("query %d [%d,%d): got count=%d sum=%d, want count=%d sum=%d", q, lo, hi, gc, gs, wc, ws)
		}
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}

	// A piece just above the threshold gets the smallest fan-out, and each
	// level takes the span of the value a probe descends towards down by at
	// least radixMinBits bits. Two fixtures, each one value duplicated to the
	// threshold plus outliers:
	//   - geometric: dup + 4^j for j = 0..31. Every level's span is the
	//     largest outlier left, whose bucket it leaves alone, so the descent
	//     peels one outlier a level and meets the bound ceil(64/radixMinBits)
	//     exactly;
	//   - extremes: both int64 extremes. The first level leaves the
	//     duplicates alone in a bucket, and a single-valued piece ends the
	//     descent, since the buckets span the piece's data, not its key
	//     interval.
	const thr, dup = 64, int64(1)
	geometric := []int64{}
	for j := range 32 {
		geometric = append(geometric, dup+1<<(2*j))
	}
	for _, c := range []struct {
		name     string
		outliers []int64
		levels   int
	}{
		{"geometric", geometric, (64 + radixMinBits - 1) / radixMinBits},
		{"extremes", []int64{math.MinInt64, math.MaxInt64}, 1},
	} {
		skew := slices.Clone(c.outliers)
		for range thr {
			skew = append(skew, dup)
		}
		rng.Shuffle(len(skew), func(i, j int) { skew[i], skew[j] = skew[j], skew[i] })
		sk := New(slices.Clone(skew), nil)
		sk.SetRadixMinPiece(thr)
		if fanOut(len(skew)) != radixMinBits {
			t.Fatalf("%s: a %d-value piece gets %d bits, want the floor %d", c.name, len(skew), fanOut(len(skew)), radixMinBits)
		}
		levels := 0
		for {
			a, b, sum, exact := sk.locate(dup)
			if exact || !sk.radixWorth(a, b) || sk.radixPiece(a, b, sum) == 0 {
				break
			}
			levels++
		}
		if levels != c.levels {
			t.Fatalf("%s: %d radix levels, want %d exactly", c.name, levels, c.levels)
		}
		if err := sk.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, r := range [][2]int64{{dup, dup + 1}, {math.MinInt64, dup}, {dup + 1, math.MaxInt64}, {math.MinInt64, math.MaxInt64}} {
			from, to := sk.CrackRange(r[0], r[1])
			wc, ws := oracleCountSum(skew, r[0], r[1])
			if gc, gs := sk.CountSum(from, to); gc != wc || gs != ws {
				t.Fatalf("%s [%d,%d): got count=%d sum=%d, want count=%d sum=%d", c.name, r[0], r[1], gc, gs, wc, ws)
			}
		}
		if err := sk.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRadixConcurrentMatchesOracle(t *testing.T) {
	const n = 1 << 15
	ix, orig := buildRadixIndex(n, 1<<10, 99)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(seed uint64) {
			rng := rand.New(rand.NewPCG(seed, seed*3))
			for q := 0; q < 50; q++ {
				lo := rng.Int64N(1 << 40)
				hi := lo + rng.Int64N(1<<38) + 1
				from, to := ix.CrackRangeConcurrent(lo, hi)
				wc, ws := oracleCountSum(orig, lo, hi)
				if gc, gs := ix.CountSumConcurrent(from, to); gc != wc || gs != ws {
					done <- fmt.Errorf("goroutine seed %d query %d: got count=%d sum=%d, want count=%d sum=%d", seed, q, gc, gs, wc, ws)
					return
				}
			}
			done <- nil
		}(uint64(g + 1))
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRadixFirstTouchKeepsNoSlack: a copy lives as long as its column, so any
// capacity beyond the column's length would be carried for life. Whatever the
// length, the first crack — a radix pass over the whole copy, which copies
// back into the arrays it was given — must leave the arrays exactly as long
// as the column, and so must the build that scatters straight from a base
// column into the array it keeps (NewFromBase).
func TestRadixFirstTouchKeepsNoSlack(t *testing.T) {
	for _, n := range []int{1<<12 + 1, 3 << 11, 1 << 12} {
		ix, orig := buildRadixIndex(n, 1<<10, uint64(n))
		fused := NewFromBase(orig, slices.Min(orig), slices.Max(orig), 1<<10)
		for _, ix := range []*Index{ix, fused} {
			from, to := ix.CrackRange(1<<38, 1<<39)
			wc, ws := oracleCountSum(orig, 1<<38, 1<<39)
			if gc, gs := ix.CountSum(from, to); gc != wc || gs != ws {
				t.Fatalf("n=%d: got count=%d sum=%d, want count=%d sum=%d", n, gc, gs, wc, ws)
			}
			if ix.Work() < int64(2*n) || ix.Pieces() < plannedBuckets(orig) {
				t.Fatalf("n=%d: work %d, %d pieces, want >= %d and >= %d; the coarse pass did not run",
					n, ix.Work(), ix.Pieces(), 2*n, plannedBuckets(orig))
			}
			if cv, cr := cap(ix.vals)+cap(ix.off), cap(ix.Rows()); cv != ix.Len() || (ix.Rows() != nil && cr != ix.Len()) {
				t.Fatalf("n=%d: after the first crack cap(vals)=%d cap(rows)=%d, want %d", n, cv, cr, ix.Len())
			}
			if err := ix.Validate(); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
	}
}

// BenchmarkRadixFanOut times one coarse pass's two loops, histogram plus
// scatter of 2^22 uniform values into a fresh array, at 8 to 13 bits of
// fan-out: the measurement behind radixMaxBits. values scatters values
// alone, as NewFromBase and a values-only copy do; rows moves a row id
// beside each value (buckets.scatterRows), two write streams per bucket.
// The loops copy count's and scatter's with arrays sized
// for 13 bits, one past the kernel's own stop at radixMaxBits.
func BenchmarkRadixFanOut(b *testing.B) {
	const n, width = 1 << 22, 40
	rng := rand.New(rand.NewPCG(8, 12))
	v := make([]int64, n)
	r := make([]uint32, n)
	for i := range v {
		v[i], r[i] = rng.Int64N(1<<width), uint32(i)
	}
	for _, withRows := range []bool{false, true} {
		for bits := 8; bits <= 13; bits++ {
			name := fmt.Sprintf("values/bits=%d", bits)
			if withRows {
				name = fmt.Sprintf("rows/bits=%d", bits)
			}
			b.Run(name, func(b *testing.B) {
				shift := uint(width - bits)
				b.SetBytes(8 * n)
				for range b.N {
					dst := make([]int64, n)
					var dstRows []uint32
					if withRows {
						dstRows = make([]uint32, n)
					}
					var hist [1 << 13]struct {
						n int
						s int64
					}
					for _, x := range v {
						h := &hist[(uint64(x)>>shift)&(1<<13-1)]
						h.n++
						h.s += x
					}
					var starts [1 << 13]int
					at := 0
					for k, h := range hist {
						starts[k] = at
						at += h.n
					}
					if withRows {
						for i, x := range v {
							bkt := (uint64(x) >> shift) & (1<<13 - 1)
							o := starts[bkt]
							if uint(o) < uint(len(dst)) && uint(o) < uint(len(dstRows)) {
								dst[o], dstRows[o] = x, r[i]
							}
							starts[bkt] = o + 1
						}
					} else {
						for _, x := range v {
							bkt := (uint64(x) >> shift) & (1<<13 - 1)
							o := starts[bkt]
							if uint(o) < uint(len(dst)) {
								dst[o] = x
							}
							starts[bkt] = o + 1
						}
					}
					sinkSum = hist[0].s
				}
			})
		}
	}
}
