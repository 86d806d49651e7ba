package cracker

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"holistic/internal/updates"
)

// narrowSpans are the data a narrow copy must answer exactly as a wide one
// does: ref at MinInt64 (every sum wraps, lows·ref included), spans of
// exactly 2^32 − 1 at the bottom, the middle and the top of the int64 range,
// and a span of 2^32, one too wide, which NewFromBase must build wide.
var narrowSpans = []struct {
	name   string
	lo, hi int64
}{
	{"ref=MinInt64", math.MinInt64, math.MinInt64 + 1<<20},
	{"span=2^32-1/bottom", math.MinInt64, math.MinInt64 + math.MaxUint32},
	{"span=2^32-1/middle", -1 << 31, 1<<31 - 1},
	{"span=2^32-1/top", math.MaxInt64 - math.MaxUint32, math.MaxInt64},
	{"span=2^32", -1 << 31, 1 << 31},
}

// twinIndexes is one narrow index beside the wide one the same program
// runs on.
type twinIndexes struct {
	t      *testing.T
	name   string
	narrow *Index
	wide   *Index
	base   []int64
}

// compare fails unless the twins agree on everything a caller can see:
// boundaries, pieces, tallies and the copy's multiset.
func (tw *twinIndexes) compare(after string) {
	tw.t.Helper()
	n, w := tw.narrow, tw.wide
	for _, ix := range []*Index{n, w} {
		if err := ix.Validate(); err != nil {
			tw.t.Fatalf("%s: after %s: %v", tw.name, after, err)
		}
	}
	if nb, wb := n.Boundaries(), w.Boundaries(); !slices.Equal(nb, wb) {
		tw.t.Fatalf("%s: after %s: boundaries %v, wide %v", tw.name, after, nb, wb)
	}
	if n.Pieces() != w.Pieces() || n.Work() != w.Work() || n.Cracks() != w.Cracks() || n.Sorted() != w.Sorted() {
		tw.t.Fatalf("%s: after %s: pieces/work/cracks/sorted %d/%d/%d/%v, wide %d/%d/%d/%v", tw.name, after,
			n.Pieces(), n.Work(), n.Cracks(), n.Sorted(), w.Pieces(), w.Work(), w.Cracks(), w.Sorted())
	}
	nv, wv := n.AppendValues(nil), w.AppendValues(nil)
	slices.Sort(nv)
	slices.Sort(wv)
	if !slices.Equal(nv, wv) {
		tw.t.Fatalf("%s: after %s: the copies hold other values", tw.name, after)
	}
}

// TestNarrowMatchesWide runs one random program on a narrow copy
// (NewFromBase) and on a wide one (New over the same values) and holds
// them to identical answers — CrackCountSum, LookupCountSum and CountSum,
// each also against a scan of the values — and identical boundaries,
// pieces, tallies and multisets after every step; CountSum, whose ragged
// edges read a piece's order, against a plain loop over each copy. The program cracks in
// two and in three, cracks at random elements, runs radix passes over
// large pieces, and at a random step widens the narrow copy by a Merge
// (inserts 2^40 apart and deletes), a Sort or an AttachRows; bounds include
// MinInt64, MaxInt64, ref − 1 and ref + 2^32. It runs once per values-only
// kernel the host has. The vector kernels leave a piece's values in orders
// of their own at the two widths (eight lanes against sixteen), so with
// them the random cracks, whose pivots are the elements at drawn
// positions, are left out.
func TestNarrowMatchesWide(t *testing.T) {
	for _, k := range valuesKernels {
		for _, sp := range narrowSpans {
			name := k.name + "/" + sp.name
			ran := withValuesKernel(k.vector, func() {
				for seed := range uint64(12) {
					runTwins(t, fmt.Sprintf("%s/seed=%d", name, seed), seed, sp.lo, sp.hi, !k.vector)
				}
			})
			if !ran {
				t.Logf("%s: the %s kernel is not supported on this CPU", name, k.name)
			}
		}
	}
}

func runTwins(t *testing.T, name string, seed uint64, lo, hi int64, randomCracks bool) {
	rng := rand.New(rand.NewPCG(seed, 64))
	n := 1000 + rng.IntN(3000)
	span := uint64(hi) - uint64(lo)
	value := func() int64 {
		switch rng.IntN(16) {
		case 0:
			return lo
		case 1:
			return hi
		case 2, 3: // a few heavy duplicates
			return lo + int64(span/2)
		}
		return int64(uint64(lo) + rng.Uint64N(span+1))
	}
	base := make([]int64, n)
	for i := range base {
		base[i] = value()
	}
	base[0], base[n-1] = lo, hi // the span is the data's own
	tw := &twinIndexes{t: t, name: name, base: base, narrow: NewFromBase(base, lo, hi, 0), wide: New(slices.Clone(base), nil)}
	if wantNarrow := narrowFits(lo, hi); (tw.narrow.off != nil) != wantNarrow || tw.wide.off != nil {
		t.Fatalf("%s: narrow %v, want %v (span %d)", name, tw.narrow.off != nil, wantNarrow, span)
	}
	tw.compare("the build")
	bound := func() int64 {
		switch rng.IntN(10) {
		case 0:
			return math.MinInt64
		case 1:
			return math.MaxInt64
		case 2:
			return lo - 1 // wraps at the top: MaxInt64
		case 3:
			return int64(uint64(lo) + 1<<32) // past every offset
		}
		return value() + int64(rng.IntN(3)) - 1
	}
	multiset := slices.Clone(base)
	widenAt := rng.IntN(40)
	for step := range 40 {
		var op string
		switch r := rng.IntN(8); {
		case step == widenAt:
			op = tw.widen(rng, &multiset)
		case r < 3:
			a, b := bound(), bound()
			op = fmt.Sprintf("CrackCountSum[%d, %d)", a, b)
			nc, ns := tw.narrow.CrackCountSum(a, b)
			wc, ws := tw.wide.CrackCountSum(a, b)
			sc, ss := naiveCountSum(multiset, a, b)
			if nc != wc || ns != ws || nc != sc || ns != ss {
				t.Fatalf("%s: %s = %d/%d, wide %d/%d, scan %d/%d", name, op, nc, ns, wc, ws, sc, ss)
			}
			nl, nls, nwork, nok := tw.narrow.LookupCountSum(a, b)
			wl, wls, wwork, wok := tw.wide.LookupCountSum(a, b)
			if nl != wl || nls != wls || nwork != wwork || nok != wok || nok && (nl != sc || nls != ss) {
				t.Fatalf("%s: LookupCountSum after %s = %d/%d/%d/%v, wide %d/%d/%d/%v", name, op, nl, nls, nwork, nok, wl, wls, wwork, wok)
			}
		case r == 3:
			v := bound()
			op = fmt.Sprintf("crackAt(%d)", v)
			crackAt(tw.narrow, v)
			crackAt(tw.wide, v)
		case r == 4 && randomCracks:
			op = "RandomCrack"
			s := rng.Uint64()
			tw.narrow.RandomCrack(rand.New(rand.NewPCG(s, 1)))
			tw.wide.RandomCrack(rand.New(rand.NewPCG(s, 1)))
		case r == 5 && !tw.wide.Sorted(): // a radix pass over the largest piece
			var big Piece
			tw.wide.ForEachPiece(func(p Piece) bool {
				if p.Size() > big.Size() {
					big = p
				}
				return true
			})
			op = fmt.Sprintf("radixPiece[%d, %d)", big.Start, big.End)
			_, sum := tw.wide.CountSum(0, big.Start)
			tw.narrow.radixPiece(big.Start, big.End, sum)
			tw.wide.radixPiece(big.Start, big.End, sum)
		default:
			from, to := rng.IntN(tw.wide.Len()+2)-1, rng.IntN(tw.wide.Len()+2)-1
			op = fmt.Sprintf("CountSum(%d, %d)", from, to)
			for _, ix := range []*Index{tw.narrow, tw.wide} { // a ragged edge reads the kernel's in-piece order
				c, s := ix.CountSum(from, to)
				if pc, ps := plainCountSum(ix.AppendValues(nil), from, to); c != pc || s != ps {
					t.Fatalf("%s: %s = %d/%d (narrow %v), plain loop %d/%d", name, op, c, s, ix.off != nil, pc, ps)
				}
			}
		}
		tw.compare(op)
	}
}

// widen runs one of the owner-exclusive operations that widen a narrow
// copy — a Merge, a Sort, or an AttachRows from the base — on both twins
// and checks that the narrow one is wide after it.
func (tw *twinIndexes) widen(rng *rand.Rand, multiset *[]int64) string {
	var op string
	switch rng.IntN(3) {
	case 0:
		var ins, del []updates.Entry
		for k := range 1 + rng.IntN(40) {
			v := int64(rng.IntN(5))<<40 - 2<<40 // 2^40 apart: the merged copy spans more than 2^32
			ins = append(ins, updates.Entry{Val: v, Row: uint32(len(tw.base) + k)})
			*multiset = append(*multiset, v)
		}
		for range rng.IntN(20) {
			i := rng.IntN(len(tw.base))
			del = append(del, updates.Entry{Val: tw.base[i], Row: uint32(i)})
		}
		updates.SortByVal(ins)
		updates.SortByVal(del)
		mn, mw := tw.narrow.Merge(ins, del), tw.wide.Merge(ins, del)
		if mn != mw {
			tw.t.Fatalf("%s: Merge missed %d deletes, wide %d", tw.name, mn, mw)
		}
		for _, d := range del { // the multiset loses one entry per delete found
			if i := slices.Index(*multiset, d.Val); i >= 0 {
				*multiset = slices.Delete(*multiset, i, i+1)
			}
		}
		op = fmt.Sprintf("Merge(%d inserts, %d deletes)", len(ins), len(del))
	case 1:
		tw.narrow.Sort()
		tw.wide.Sort()
		op = "Sort"
	default:
		for _, ix := range []*Index{tw.narrow, tw.wide} {
			if err := ix.AttachRows(tw.base, 0, 1, nil); err != nil {
				tw.t.Fatalf("%s: AttachRows: %v", tw.name, err)
			}
		}
		op = "AttachRows"
	}
	if tw.narrow.off != nil || tw.narrow.vals == nil && tw.narrow.Len() > 0 {
		tw.t.Fatalf("%s: still narrow after %s", tw.name, op)
	}
	return op
}

// TestNarrowSums holds a narrow copy's sums — lows·ref plus the offsets'
// sum, in wrapping int64 — to a scan of the values, and its pivots to
// clamp(v − ref, 0, 2^32), at the edges: ref at MinInt64 and near
// MaxInt64, a span of 2^32 − 1, pieces wholly below and wholly above a
// bound, and bounds at MinInt64, ref, ref + 2^32 − 1, ref + 2^32 and
// MaxInt64.
func TestNarrowSums(t *testing.T) {
	for _, ref := range []int64{math.MinInt64, -1 << 31, 0, math.MaxInt64 - math.MaxUint32} {
		top := ref + math.MaxUint32
		vals := []int64{top, ref, ref + 1, top - 1, ref + 1<<31, top, ref, ref + 7}
		for _, v := range []int64{math.MinInt64, ref, ref + 1, ref + 1<<31, top, top + min(1, math.MaxInt64-top), math.MaxInt64} {
			ix := NewFromBase(vals, ref, top, 0)
			if ix.off == nil || ix.ref != ref {
				t.Fatalf("ref %d: the copy is not narrow from ref", ref)
			}
			wantPivot := uint64(0)
			if v > ref {
				wantPivot = min(uint64(v)-uint64(ref), 1<<32)
			}
			if p := ix.offPivot(v); p != wantPivot {
				t.Fatalf("ref %d: offPivot(%d) = %d, want %d", ref, v, p, wantPivot)
			}
			c, s := ix.CrackCountSum(math.MinInt64, v)
			wc, ws := naiveCountSum(vals, math.MinInt64, v)
			if c != wc || s != ws {
				t.Fatalf("ref %d: CrackCountSum[MinInt64, %d) = %d/%d, scan %d/%d", ref, v, c, s, wc, ws)
			}
			if c, s := ix.CountSum(0, len(vals)); c != len(vals) || s != sumVals(vals) {
				t.Fatalf("ref %d: CountSum of the copy = %d/%d, want %d/%d", ref, c, s, len(vals), sumVals(vals))
			}
			if err := ix.Validate(); err != nil {
				t.Fatalf("ref %d: %v", ref, err)
			}
		}
	}
	if NewFromBase([]int64{0, 1 << 32}, 0, 1<<32, 0).off != nil {
		t.Fatal("a span of 2^32 was stored narrow")
	}
}
