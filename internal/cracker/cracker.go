// Package cracker implements database cracking, the adaptive indexing
// substrate of the holistic kernel (Idreos, Kersten, Manegold, CIDR 2007).
//
// A cracker index keeps a reorganised copy of a base column together with a
// cracker tree (package cracktree) that records, for each crack boundary
// value v, the first position holding a value >= v. The copy is physically
// reordered — "cracked" — as a side effect of range selects: each query
// partitions only the piece(s) its predicate bounds fall into, so the column
// converges towards sorted order exactly where the workload has interest.
//
// Beyond query-driven cracking the package provides the idle-time action of
// holistic indexing, RandomCrack ("X index refinements" in the paper): crack
// at the value of a uniformly random element of the copy (MDD1R, Halim et
// al., Stochastic Database Cracking, VLDB 2012), so a piece is picked in
// proportion to its size and a pivot always exists in the data.
//
// # The boundary-sum invariant
//
// The engine's answer to a select is (count, sum), so every boundary also
// records the wrapping (mod 2^64) sum of the cracked copy below its
// position, and a range whose bounds are boundaries is answered by a
// subtraction — no value is read. The invariant survives every mutator
// because none of them changes the multiset of values below an existing
// boundary except by the one value it is told about:
//
//   - a crack (in two, in three, or a radix pass, NewFromBase's included)
//     permutes values inside one piece only, so existing sums stand and each
//     new boundary is seeded with its piece's base sum plus the sum below it
//     in the piece, which the partition sweep or radix histogram accumulates;
//   - a merge moves values across only the boundaries above its batch's
//     lowest value, and the array below each of those gains or loses exactly
//     the batch values below its key, so the walk that slides their positions
//     adds those values' sum to theirs;
//   - RestoreIndex recomputes the sums from the restored copy, so a snapshot
//     does not store them.
//
// Validate re-derives every sum from a running scan.
//
// # Row ids on demand
//
// A select only counts and sums values, so a copy starts values-only, after
// a load and after a restore alike (a snapshot stores no row ids): every
// crack, radix pass, sort and merge moves 8 bytes a value or fewer (see
// "Narrow copies"), and the copy costs no more than the column. Only a
// DELETE's first-live lookup (MinRowOf) asks which base row an entry is;
// the owner attaches row ids before its first one (AttachRows, attach.go),
// and from then on they move in lockstep with the values. A values-only
// merge deletes by value: count and sum depend only on the multiset, and
// the owner's tombstone keeps the row's identity.
//
// # Narrow copies
//
// A values-only copy whose values span less than 2^32 — hi − lo ≤
// MaxUint32 in uint64 arithmetic — is stored narrow: as uint32 offsets from
// a reference ref, the least value it may hold, so value i is ref + off[i].
// It takes 4 bytes a value instead of 8, and its first touch and every
// crack move half the bytes. Crack-tree keys, boundary sums and every
// answer stay absolute int64: a bound v is compared with the offsets as
// clamp(v − ref, 0, 2^32) (a pivot past every offset leaves the whole piece
// low), and k offsets add to their values' wrapping sum as k·ref + Σoff.
//
// The index picks the width of the arrays it builds itself — NewFromLive and
// RestoreIndex — from the data's span; a bare New adopts the caller's wide
// array. Cracks, radix passes and RandomCrack, which run under piece
// stripes, work on either width and never change it; the owner-exclusive
// Merge, Sort and AttachRows widen a narrow copy first, in one pass. So a
// narrow copy is values-only, unsorted and never merged; Validate checks
// the first two.
//
// # The sorted state
//
// A full index is the limit refinement moves toward; Sort reaches it in one
// comparison sort (sorted.go). It keeps prefix sums instead of a crack tree,
// so locate answers every bound exactly by binary search: lookups always
// answer, every crack is a no-op, and the piece statistics report converged.
// The state is final: an owner that drops a full index drops the index.
package cracker

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"holistic/internal/cracktree"
)

// Index is a cracker index over a single column.
//
// # Latches
//
// The structure — the arrays themselves (vals, rows, the sorted state) — is
// latched once, by the owner: Merge, Sort, AttachRows and Validate replace
// or rewrite it, and the owner keeps each of them apart from every other
// call on the index (package shard runs them under the part's exclusive
// latch). Every other call may run beside any other, and two latches taken
// in this order let cracks of different pieces run at once (Graefe et al.,
// Concurrency Control for Adaptive Indexing: latch the piece, not the
// column):
//
//   - stripes, a fixed array of piece latches keyed by the position a piece
//     starts at, guard the values inside a piece: a crack holds its piece's
//     stripe while it partitions or radix-scatters it, a reader while it
//     reads values (MinRowOf, RandomCrack's pivot, CountSum's ragged edges).
//     A crack never moves a boundary, so a piece keeps its start while it
//     exists, and the lower half of a split keeps its stripe. Pieces whose
//     starts share a stripe wait on each other, which costs time, never
//     correctness.
//   - tmu, the tree latch, guards the crack tree: shared for each locate,
//     exclusive for the moment a crack inserts its boundaries. Nothing waits
//     on a stripe while holding it. A reader of the tree and the arrays'
//     length alone (LookupCountSum, LookupRange, the piece statistics,
//     Boundaries) holds it alone, so a converged select takes one latch.
//
// A crack locates its piece under the tree latch and tries the piece's
// stripe before releasing it. A taken stripe makes it wait for the stripe
// and locate again: an unchanged start means no other crack split the piece
// in between, a boundary now at the bound is answered by lookup, and
// anything else retries (see latchBounds).
//
// The copy is vals, or off and ref while it is narrow (see "Narrow
// copies"); the other array is nil. rows is nil while the copy is
// values-only (see "Row ids on demand"); once attached it is as long as
// vals and rows[i] is the base row of vals[i]. Beyond a narrow copy's ref
// the index keeps no value bounds: the one pass that needs a piece's range,
// a radix pass, reads it off the piece (radix.go).
//
// Positions returned by one call (CrackRange, LookupRange) stay
// valid for a later call (CountSum) only while no structural operation runs
// in between: cracks never move a value across an existing boundary and
// never move a boundary, but Merge does. The owner therefore holds its own
// latch shared around a lookup-then-aggregate pair and exclusively around
// Merge and any use of AppendValues/Rows.
type Index struct {
	tmu  spinRW
	vals []int64
	off  []uint32
	ref  int64
	rows []uint32
	tree cracktree.Tree

	// sorted marks the full index (see "The sorted state"); pre[i] is then
	// the wrapping sum of vals[:i], len(vals)+1 entries. A sorted copy is
	// wide.
	sorted bool
	pre    []int64

	// radixMin is the piece-size threshold for radix-first coarse cracking
	// (see radix.go); <= 0 disables it. Set once via SetRadixMinPiece before
	// the index is shared.
	radixMin int

	cracks atomic.Int64 // crack actions performed (boundaries inserted)
	work   atomic.Int64 // elements touched by partitioning, the dominant cost

	// testHookCrack, when non-nil, runs inside every crack with its stripes
	// held, just before it partitions. Tests use it to park a crack there.
	testHookCrack func()

	stripes [stripeCount]stripe
}

// stripeCount is the number of piece latches per index: two clients cracking
// random pieces share one with probability 1/64, and the array costs 4 KB.
const (
	stripeBits  = 6
	stripeCount = 1 << stripeBits
)

// stripe is one piece latch, padded to a cache line of its own so that
// cracks of pieces on different stripes do not share one.
type stripe struct {
	sync.Mutex
	_ [64 - 8]byte
}

// The tree latch and the stripes spin before they park. Either is held for
// about a µs — a locate, a boundary insert, the partition of a small piece —
// while a goroutine that parks on a sync latch waits tens of µs for its
// wake-up on a 2-vCPU host, and the other core runs out of work meanwhile
// (ARCHITECTURE.md, "Latching"). So a waiter retries, yielding its core
// between tries (runtime.Gosched, which also lets a holder on the same core
// run), and parks only after spinTries failed tries: a long partition still
// parks its waiters.
const spinTries = 64

// spin calls try until it succeeds, yielding the core between tries, and
// calls block, which waits, after spinTries failed tries.
func spin(try func() bool, block func()) {
	for i := 0; !try(); i++ {
		if i == spinTries {
			block()
			return
		}
		runtime.Gosched()
	}
}

func (s *stripe) lock() { spin(s.TryLock, s.Lock) }

// spinRW is the tree latch: a reader/writer latch whose waiters spin first.
type spinRW struct{ sync.RWMutex }

func (l *spinRW) rlock() { spin(l.TryRLock, l.RLock) }

func (l *spinRW) lock() { spin(l.TryLock, l.Lock) }

// stripeOf returns the stripe of the piece starting at position start
// (Fibonacci hashing, so neighbouring pieces land far apart).
func stripeOf(start int) int {
	return int(uint64(start) * 0x9E3779B97F4A7C15 >> (64 - stripeBits))
}

// lock2 locks stripes i and j (-1 for none) in stripe order, once when
// equal; unlock2 releases them.
func (ix *Index) lock2(i, j int) {
	if i > j {
		i, j = j, i
	}
	if i >= 0 {
		ix.stripes[i].lock()
	}
	if j >= 0 && j != i {
		ix.stripes[j].lock()
	}
}

// try2 is lock2 without waiting: it locks both stripes or neither.
func (ix *Index) try2(i, j int) bool {
	if i >= 0 && !ix.stripes[i].TryLock() {
		return false
	}
	if j >= 0 && j != i && !ix.stripes[j].TryLock() {
		if i >= 0 {
			ix.stripes[i].Unlock()
		}
		return false
	}
	return true
}

func (ix *Index) unlock2(i, j int) {
	if i >= 0 {
		ix.stripes[i].Unlock()
	}
	if j >= 0 && j != i {
		ix.stripes[j].Unlock()
	}
}

// New builds a cracker index that adopts vals and rows without copying or
// reading them, so its copy is wide. rows is nil for a values-only index;
// otherwise both slices have the same length and rows[i] is the base row id
// of vals[i].
func New(vals []int64, rows []uint32) *Index {
	return &Index{vals: vals, rows: rows}
}

// Len returns the number of values in the index.
func (ix *Index) Len() int { return len(ix.vals) + len(ix.off) }

// narrowFits reports whether values in [lo, hi] fit a narrow copy.
func narrowFits(lo, hi int64) bool {
	return lo <= hi && uint64(hi)-uint64(lo) <= math.MaxUint32
}

// at returns value i of the copy, at either width.
func (ix *Index) at(i int) int64 {
	if ix.off != nil {
		return ix.ref + int64(ix.off[i])
	}
	return ix.vals[i]
}

// sumRange returns the wrapping sum of values [i, j) of the copy, at either
// width.
func (ix *Index) sumRange(i, j int) int64 {
	if ix.off != nil {
		return int64(j-i)*ix.ref + sumVals(ix.off[i:j])
	}
	return sumVals(ix.vals[i:j])
}

// offPivot maps bound v to a narrow copy's offsets: clamp(v − ref, 0, 2^32),
// so an offset is below the result exactly when its value is below v.
func (ix *Index) offPivot(v int64) uint64 {
	switch d := uint64(v) - uint64(ix.ref); {
	case v <= ix.ref:
		return 0
	case d > 1<<32:
		return 1 << 32
	default:
		return d
	}
}

// widen turns a narrow copy wide, with room for m values when m exceeds
// its length — the capacity GrowTo would give — so the merge that widens
// it does not move it again. The owner holds the index exclusively.
func (ix *Index) widen(m int) {
	if ix.off == nil {
		return
	}
	n := len(ix.off)
	c := n
	if m > n {
		c = m + Slack(n)
	}
	ix.vals = ix.AppendValues(make([]int64, 0, c))
	ix.off, ix.ref = nil, 0
}

// Pieces returns the number of pieces the column is currently cracked into.
// An uncracked, non-empty column is one piece, a sorted one one per value.
func (ix *Index) Pieces() int {
	ix.tmu.rlock()
	defer ix.tmu.RUnlock()
	return ix.pieces()
}

// pieces counts the pieces; the caller holds the tree latch.
func (ix *Index) pieces() int {
	if ix.sorted || ix.Len() == 0 {
		return ix.Len()
	}
	return ix.tree.Len() + 1
}

// Cracks returns the number of crack actions (boundary insertions) so far.
func (ix *Index) Cracks() int { return int(ix.cracks.Load()) }

// Work returns the cumulative number of elements touched by partitioning.
func (ix *Index) Work() int64 { return ix.work.Load() }

// AvgPieceSize returns the mean piece size, or 0 for an empty index.
func (ix *Index) AvgPieceSize() float64 {
	ix.tmu.rlock()
	defer ix.tmu.RUnlock()
	p := ix.pieces()
	if p == 0 {
		return 0
	}
	return float64(ix.Len()) / float64(p)
}

// AppendValues appends the cracked copy's values, in position order, to
// dst and returns the extended slice: a copy, widened from a narrow copy's
// offsets. Callers hold the index exclusively through the owner's latch
// (see the Index comment): a concurrent crack reorders the array.
func (ix *Index) AppendValues(dst []int64) []int64 {
	if ix.off == nil {
		return append(dst, ix.vals...)
	}
	dst = slices.Grow(dst, len(ix.off))
	for _, o := range ix.off {
		dst = append(dst, ix.ref+int64(o))
	}
	return dst
}

// Rows exposes the base row ids aligned with AppendValues' values, under
// the same rule, read-only: nil while the index is values-only.
func (ix *Index) Rows() []uint32 { return ix.rows }

// Narrow reports whether the copy is stored narrow (see "Narrow copies").
func (ix *Index) Narrow() bool { return ix.off != nil }

// HasRows reports whether row ids are attached (see "Row ids on demand").
func (ix *Index) HasRows() bool { return ix.rows != nil }

// MinRowOf returns the lowest base row id among the entries holding exactly
// value v for which live reports true. It reads v's piece under its stripe
// and cracks nothing, so its cost is that piece's size — or, sorted, the run
// of v's duplicates — the point lookup a DELETE resolves its row with. live
// runs under the latches and must not call back into the index. A
// values-only index names no row: the caller attaches row ids first
// (AttachRows).
func (ix *Index) MinRowOf(v int64, live func(row uint32) bool) (row uint32, ok bool) {
	if ix.rows == nil {
		return 0, false
	}
	var a, b int
	if ix.sorted { // the run of duplicates starts at a; nothing moves it
		a, b, _, _ = ix.locate(v)
		for b < len(ix.vals) && ix.vals[b] == v {
			b++
		}
	} else {
		var s int
		a, b, s = ix.latchPiece(v)
		defer ix.unlock2(s, -1)
	}
	for i, val := range ix.vals[a:b] {
		if val != v {
			continue
		}
		if r := ix.rows[a+i]; (!ok || r < row) && live(r) {
			row, ok = r, true
		}
	}
	return row, ok
}

// latchPiece locks the stripe of v's piece [a, b) of a cracked index and
// returns the piece and the stripe. It locates again under the stripe until
// the piece still starts where it was found: then no crack can be moving its
// values. The caller unlocks the stripe.
func (ix *Index) latchPiece(v int64) (a, b, s int) {
	a, b, _, _ = ix.locateShared(v)
	for {
		s = stripeOf(a)
		ix.lock2(s, -1)
		a2, b2, _, _ := ix.locateShared(v)
		if a2 == a {
			return a, b2, s
		}
		ix.unlock2(s, -1)
		a, b = a2, b2
	}
}

// locate is tree.Locate for either state: a sorted index answers every
// bound exactly, by binary search. The caller holds tmu unless the index is
// sorted.
func (ix *Index) locate(v int64) (start, end int, sum int64, exact bool) {
	if ix.sorted {
		at := sort.Search(len(ix.vals), func(i int) bool { return ix.vals[i] >= v })
		return at, at, ix.pre[at], true
	}
	return ix.tree.Locate(v, ix.Len())
}

// locateShared is locate under a shared tree latch of its own.
func (ix *Index) locateShared(v int64) (start, end int, sum int64, exact bool) {
	ix.tmu.rlock()
	defer ix.tmu.RUnlock()
	return ix.locate(v)
}

// lookup locates both bounds of [lo, hi). When both already are boundaries —
// ok — it returns their positions and the sum of the values between them.
// Otherwise work is the number of values a crack would have to partition to
// make them so: the sizes of the one or two pieces the missing bounds fall in
// (0 for an empty range or index, where there is nothing to crack). It
// takes the tree latch shared, and no other.
func (ix *Index) lookup(lo, hi int64) (from, to int, sum int64, work int, ok bool) {
	if lo >= hi {
		return 0, 0, 0, 0, false
	}
	ix.tmu.rlock()
	if ix.Len() == 0 {
		ix.tmu.RUnlock()
		return 0, 0, 0, 0, false
	}
	aL, bL, sLo, okLo := ix.locate(lo)
	aH, bH, sHi, okHi := ix.locate(hi)
	ix.tmu.RUnlock()
	if okLo && okHi {
		return aL, aH, sHi - sLo, 0, true
	}
	if !okLo {
		work = bL - aL
	}
	if !okHi && (okLo || aH != aL || bH != bL) {
		work += bH - aH
	}
	return 0, 0, 0, work, false
}

// LookupRange reports, without cracking anything, whether crack boundaries
// already exist for both lo and hi; if so it returns their positions. It is
// the read-only fast path for selects on already-cracked ranges.
func (ix *Index) LookupRange(lo, hi int64) (from, to int, ok bool) {
	from, to, _, _, ok = ix.lookup(lo, hi)
	return from, to, ok
}

// LookupCountSum answers [lo, hi) — tuple count and sum of values, the
// projection checksum the engine uses to compare strategies — when crack
// boundaries already exist for both bounds: the tree latch shared, two tree
// lookups and a subtraction, whatever the number of pieces or values in
// between; the cracked copy is not read and no other latch is taken.
// ok false means a bound is not a boundary yet (or the range or index is
// empty); work then says how many values CrackCountSum would partition as
// the index stands (see lookup) — what the caller weighs before deciding
// where to run the crack.
func (ix *Index) LookupCountSum(lo, hi int64) (count int, sum int64, work int, ok bool) {
	from, to, sum, work, ok := ix.lookup(lo, hi)
	return to - from, sum, work, ok
}

// CrackCountSum is the select operator: it answers [lo, hi) from the
// boundaries when both exist and otherwise cracks them in (see crack),
// answering from the positions and sums of the boundaries it just made. An
// empty or inverted range yields (0, 0).
func (ix *Index) CrackCountSum(lo, hi int64) (count int, sum int64) {
	from, to, sum := ix.crackRange(lo, hi)
	return to - from, sum
}

// CrackRange ensures crack boundaries exist for lo and hi and returns the
// contiguous region [from, to) of the cracked copy that holds exactly the
// values in [lo, hi). It is the select operator's core: the first query on a
// range pays for partitioning the pieces its bounds fall in, holding only
// those pieces' stripes, later queries on the same bounds are pure lookups.
// An empty or inverted range yields (0, 0).
func (ix *Index) CrackRange(lo, hi int64) (from, to int) {
	from, to, _ = ix.crackRange(lo, hi)
	return from, to
}

// CrackRangeConcurrent is CrackRange; the name is kept because the frozen
// benchmark rig (bench/) calls it.
func (ix *Index) CrackRangeConcurrent(lo, hi int64) (from, to int) {
	return ix.CrackRange(lo, hi)
}

// crackRange cracks lo and hi in and returns the region [from, to) holding
// the values in [lo, hi) and their sum.
func (ix *Index) crackRange(lo, hi int64) (from, to int, sum int64) {
	if lo >= hi {
		return 0, 0, 0
	}
	bs := [2]bound{{v: lo}, {v: hi}}
	ix.crack(bs[:])
	return bs[0].a, bs[1].a, bs[1].sum - bs[0].sum
}

// splitAt cracks at pivot v. It reports the size of the piece partitioned
// (the work done) and whether this call made the boundary; its locates also
// catch a goroutine that cracked at exactly v since the caller last looked.
func (ix *Index) splitAt(v int64) (pieceSize int, cracked bool) {
	first := ix.crack([]bound{{v: v}})
	return max(first, 0), first >= 0
}

// bound is one bound of a crack: v's piece [a, b) and the prefix sum at a,
// or, exact, the boundary at v, at position a with prefix sum sum.
type bound struct {
	v     int64
	a, b  int
	sum   int64
	exact bool
}

// locateAll locates every bound; the caller holds the tree latch shared.
func (ix *Index) locateAll(bs []bound) {
	for i := range bs {
		bs[i].a, bs[i].b, bs[i].sum, bs[i].exact = ix.locate(bs[i].v)
	}
}

// radixWorth says the piece [a, b) takes a radix pass before it is split.
func (ix *Index) radixWorth(a, b int) bool {
	return ix.radixMin > 0 && b-a >= ix.radixMin
}

// crack makes every bound in bs (one or two, ascending) a boundary and
// leaves each exact, at its boundary's position and prefix sum. first is the
// size of the piece bs[0] was cracked in, or -1 when it was a boundary
// already.
//
// Each round latches the pieces still to crack (latchBounds), and
// partitions them with only their stripes held, taking the tree latch
// exclusively just to insert the boundaries. A radix pass ends the round
// instead, since it leaves the bounds in buckets that start elsewhere.
func (ix *Index) crack(bs []bound) (first int) {
	first = -1
	if ix.Len() == 0 {
		for i := range bs {
			bs[i] = bound{v: bs[i].v, exact: true}
		}
		return first
	}
	for {
		s0, s1 := ix.latchBounds(bs)
		if s0 < 0 && s1 < 0 {
			return first
		}
		// A large cold piece takes a radix coarse pass first (one pass when
		// both bounds share it), and the bounds land in (possibly different)
		// buckets. The rounds this adds are bounded by the radix level count:
		// the span shrinks at least 2^radixMinBits-fold per level, so at most
		// ceil(64/radixMinBits) levels.
		same := len(bs) == 2 && !bs[0].exact && !bs[1].exact && bs[0].a == bs[1].a && bs[0].b == bs[1].b
		radixed := false
		for i := range bs {
			if !bs[i].exact && !(same && i == 1) && ix.radixWorth(bs[i].a, bs[i].b) {
				radixed = ix.radixPiece(bs[i].a, bs[i].b, bs[i].sum) > 0 || radixed
			}
		}
		if first < 0 && !bs[0].exact {
			first = bs[0].b - bs[0].a
		}
		if radixed {
			ix.unlock2(s0, s1)
			continue
		}
		if h := ix.testHookCrack; h != nil {
			h()
		}
		ix.partition(bs, same)
		ix.unlock2(s0, s1)
		return first
	}
}

// latchBounds locates the bounds in bs and locks the stripes of the pieces
// that are not boundaries yet, in stripe order, returning them (-1 for
// none); every bound's piece is then its located one, and no other crack can
// be moving its values.
//
// The stripes are first tried with the tree latch still held from the
// locate: a try never waits, and no boundary can appear in between. A stripe
// that is taken makes it release the tree latch, wait for the stripes and
// locate again: a bound whose piece still starts where it did is guarded by
// the stripe held, one that became a boundary needs nothing more, and any
// other change — another crack split the piece meanwhile — starts over.
func (ix *Index) latchBounds(bs []bound) (s0, s1 int) {
	var held [2]bound
	ix.tmu.rlock()
	for {
		ix.locateAll(bs)
		s := [2]int{-1, -1}
		for i := range bs {
			if !bs[i].exact {
				s[i] = stripeOf(bs[i].a)
			}
		}
		if s[0] < 0 && s[1] < 0 || ix.try2(s[0], s[1]) {
			ix.tmu.RUnlock()
			return s[0], s[1]
		}
		ix.tmu.RUnlock()
		copy(held[:], bs)
		ix.lock2(s[0], s[1])
		ix.tmu.rlock()
		ix.locateAll(bs)
		moved := false
		for i := range bs {
			moved = moved || !held[i].exact && !bs[i].exact && bs[i].a != held[i].a
		}
		if !moved {
			ix.tmu.RUnlock()
			return s[0], s[1]
		}
		ix.unlock2(s[0], s[1])
	}
}

// partition splits the pieces of the bounds in bs that are not boundaries
// yet — in three, one pass for both bounds, when same says they share a
// piece — and inserts the new boundaries under the exclusive tree latch. The
// caller holds the pieces' stripes.
func (ix *Index) partition(bs []bound, same bool) {
	var pos [2]int
	var sum [2]int64
	if same { // in three: split on lo, then the upper band on hi (Alvarez et al.)
		lo, hi := &bs[0], &bs[1]
		m1, sumLow := ix.partition2(lo.a, lo.b, lo.v)
		m2, sumMid := ix.partition2(m1, lo.b, hi.v)
		pos[0], sum[0] = m1, lo.sum+sumLow
		pos[1], sum[1] = m2, lo.sum+sumLow+sumMid
		ix.work.Add(int64(lo.b - lo.a))
	} else {
		for i := range bs {
			if b := &bs[i]; !b.exact {
				m, sumLow := ix.partition2(b.a, b.b, b.v)
				pos[i], sum[i] = m, b.sum+sumLow
				ix.work.Add(int64(b.b - b.a))
			}
		}
	}
	ix.tmu.lock()
	for i := range bs {
		if b := &bs[i]; !b.exact {
			ix.tree.Insert(b.v, pos[i], sum[i])
			ix.cracks.Add(1)
			b.a, b.b, b.sum, b.exact = pos[i], pos[i], sum[i], true
		}
	}
	ix.tmu.Unlock()
}

// partition2 is partition2 (partition.go) over the copy at either width:
// it splits [a, b) at v, returning the split position and the low side's
// wrapping sum.
func (ix *Index) partition2(a, b int, v int64) (m int, sumLow int64) {
	if ix.off == nil {
		return partition2(ix.vals, ix.rows, a, b, v)
	}
	m, s := partition2Off(ix.off, a, b, ix.offPivot(v))
	return m, int64(m-a)*ix.ref + int64(s)
}

// RandomCrack is one random refinement action, the paper's idle-time work
// unit: it draws a uniformly random element of the copy and cracks at its
// value. It reports the work done (values partitioned). Reading only, under
// the stripe of the element's piece, it returns 0 when that value already is
// a boundary, when its piece holds one value, or when no value of the piece
// lies below it — a crack there would leave an empty piece — as always on a
// sorted index. That scan stops at the first smaller value, which a random
// element usually meets within a few reads.
func (ix *Index) RandomCrack(rng *rand.Rand) int {
	v, split := ix.randomPivot(rng)
	if !split {
		return 0
	}
	// The pivot was read from the copy a moment ago; splitAt locates it
	// again.
	size, _ := ix.splitAt(v)
	return size
}

// randomPivot draws the element and decides whether cracking at it splits
// its piece (see RandomCrack).
func (ix *Index) randomPivot(rng *rand.Rand) (v int64, split bool) {
	n := ix.Len()
	if n == 0 {
		return 0, false
	}
	p := rng.IntN(n)
	if ix.sorted {
		return ix.vals[p], false
	}
	// The piece holding position p starts at the last boundary at or below
	// p; lock its stripe and look again until that holds under the stripe.
	start := ix.floorPos(p)
	for {
		s := stripeOf(start)
		ix.lock2(s, -1)
		if now := ix.floorPos(p); now != start {
			ix.unlock2(s, -1)
			start = now
			continue
		}
		v = ix.at(p)
		a, b, _, exact := ix.locateShared(v) // a == start: v lies in p's piece
		split = !exact && b-a > 1 && ix.anyBelow(a, b, v)
		ix.unlock2(s, -1)
		return v, split
	}
}

// floorPos returns the start of the piece holding position pos of a cracked
// index, under a shared tree latch of its own.
func (ix *Index) floorPos(pos int) int {
	ix.tmu.rlock()
	_, p, _, _ := ix.tree.FloorPos(pos) // no boundary: p = 0
	ix.tmu.RUnlock()
	return p
}

// anyBelow reports whether some value of the copy in [a, b) is < v, a value
// the copy holds.
func (ix *Index) anyBelow(a, b int, v int64) bool {
	if ix.off != nil {
		return anyBelow(ix.off[a:b], uint32(v-ix.ref))
	}
	return anyBelow(ix.vals[a:b], v)
}

// anyBelow reports whether some value in vals is < v.
func anyBelow[E word](vals []E, v E) bool {
	for _, x := range vals {
		if x < v {
			return true
		}
	}
	return false
}

// Piece describes one contiguous region of the cracked copy. Values in the
// region lie in [Lo, Hi); HasLo/HasHi are false for the outermost pieces
// whose bounds are only limited by the column domain.
type Piece struct {
	Start, End int
	Lo, Hi     int64
	HasLo      bool
	HasHi      bool
}

// Size returns the number of values in the piece.
func (p Piece) Size() int { return p.End - p.Start }

// ForEachPiece visits every piece in position order (a sorted index has no
// boundaries: one piece). The visit function returns false to stop early; it
// runs under the shared tree latch and must not call back into the index.
func (ix *Index) ForEachPiece(visit func(Piece) bool) {
	ix.tmu.rlock()
	defer ix.tmu.RUnlock()
	if ix.Len() == 0 {
		return
	}
	prevPos := 0
	prevKey := int64(0)
	hasPrev := false
	stopped := false
	ix.tree.Walk(func(key int64, pos int, _ int64) bool {
		p := Piece{Start: prevPos, End: pos, Lo: prevKey, Hi: key, HasLo: hasPrev, HasHi: true}
		prevPos, prevKey, hasPrev = pos, key, true
		if !visit(p) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	visit(Piece{Start: prevPos, End: ix.Len(), Lo: prevKey, HasLo: hasPrev})
}

// RangePieceAvg returns the average size (in values) of the pieces
// overlapping the value range [lo, hi), or 0 for an empty index or range; a
// sorted index reports 1. It descends to lo's piece and walks only the
// boundaries inside the range, so its cost does not depend on how finely the
// rest of the column is cracked. The benchmark rig (bench/) reads it by name;
// nothing in the kernel does.
func (ix *Index) RangePieceAvg(lo, hi int64) float64 {
	if lo >= hi {
		return 0
	}
	ix.tmu.rlock()
	defer ix.tmu.RUnlock()
	n := ix.Len()
	switch {
	case n == 0:
		return 0
	case ix.sorted:
		return 1
	}
	// The overlapping pieces run from lo's piece up to the first boundary at
	// or above hi; every boundary strictly between starts one more piece.
	from, _, _, _ := ix.tree.Locate(lo, n)
	to, pieces := n, 1
	ix.tree.WalkFrom(lo+1, func(key int64, pos int, _ int64) bool {
		if key >= hi {
			to = pos
			return false
		}
		pieces++
		return true
	})
	return float64(to-from) / float64(pieces)
}

// CountSum aggregates the region [from, to) of the cracked copy, returning
// the tuple count and the sum of values. It is the positional twin of
// LookupCountSum for callers that hold positions from CrackRange or
// LookupRange: each end costs one tree lookup, and only the ragged edge
// between a position and the boundary below it is read — nothing when the
// position is a boundary's, which is what those calls return. A ragged edge
// is read under its piece's stripe. Positions are clamped to the copy; an
// empty or inverted region yields (0, 0).
func (ix *Index) CountSum(from, to int) (int, int64) {
	from, to = max(from, 0), min(to, ix.Len())
	if from >= to {
		return 0, 0
	}
	if ix.sorted {
		return to - from, ix.pre[to] - ix.pre[from]
	}
	for {
		// The wrapping sum of vals[:pos] is the sum carried by the last
		// boundary at or below pos (p = 0, sum = 0 without one) plus the
		// values between that boundary and pos.
		ix.tmu.rlock()
		_, pf, sf, _ := ix.tree.FloorPos(from)
		_, pt, st, _ := ix.tree.FloorPos(to)
		ix.tmu.RUnlock()
		if pf == from && pt == to {
			return to - from, st - sf
		}
		i, j := -1, -1
		if pf != from {
			i = stripeOf(pf)
		}
		if pt != to {
			j = stripeOf(pt)
		}
		ix.lock2(i, j)
		if ix.floorPos(from) == pf && ix.floorPos(to) == pt { // no crack split the edges' pieces
			sum := st + ix.sumRange(pt, to) - sf - ix.sumRange(pf, from)
			ix.unlock2(i, j)
			return to - from, sum
		}
		ix.unlock2(i, j)
	}
}

// word is an element of a copy: a value, or a narrow copy's offset.
type word interface{ int64 | uint32 }

// sumVals adds vals, each as an int64 (an offset zero-extended), into four
// independent accumulators: one is a serial dependency chain whose speed
// depends on where the linker places the loop (±15 % measured), four keep
// the adders busy wherever it lands. Re-slicing by a checked length drops
// every bounds check; wrap-around is the plain loop's, int64 addition being
// associative and commutative modulo 2^64. No select or crack calls it: it
// reads CountSum's ragged edges and re-derives the boundary sums in
// RestoreIndex.
func sumVals[E word](vals []E) int64 {
	var s0, s1, s2, s3 int64
	for len(vals) >= 4 {
		s0 += int64(vals[0])
		s1 += int64(vals[1])
		s2 += int64(vals[2])
		s3 += int64(vals[3])
		vals = vals[4:]
	}
	for _, v := range vals {
		s0 += int64(v)
	}
	return s0 + s1 + s2 + s3
}

// CountSumConcurrent is CountSum; see CrackRangeConcurrent.
func (ix *Index) CountSumConcurrent(from, to int) (int, int64) {
	return ix.CountSum(from, to)
}

// Validate checks the structural invariants of the index:
//   - the crack tree's layout holds (cracktree.Tree.Check), so boundary
//     positions are non-decreasing in key order, and they are within range;
//   - every value left of a boundary is < its key, every value right is >= it;
//   - every boundary's sum is the wrapping sum of the values left of it;
//   - rows, once attached, is as long as vals;
//   - a narrow copy (see "Narrow copies") is values-only and unsorted;
//   - a sorted index has no boundaries, each value is >= the one before it,
//     and each prefix sum is the wrapping sum of the values below it.
//
// The owner keeps it apart from every other call (see "Latches"), so no
// crack runs while it scans. It is exported for use by tests across
// packages.
func (ix *Index) Validate() error {
	n := ix.Len()
	if ix.off != nil && (ix.vals != nil || ix.rows != nil || ix.sorted) {
		return fmt.Errorf("cracker: narrow copy beside %d wide values, %d row ids, sorted %v", len(ix.vals), len(ix.rows), ix.sorted)
	}
	if ix.rows != nil && len(ix.vals) != len(ix.rows) {
		return fmt.Errorf("cracker: vals/rows length mismatch %d != %d", len(ix.vals), len(ix.rows))
	}
	if ix.sorted && (ix.tree.Len() != 0 || len(ix.pre) != len(ix.vals)+1 || ix.pre[0] != 0) {
		return fmt.Errorf("cracker: sorted index with %d boundaries, %d prefix sums for %d values", ix.tree.Len(), len(ix.pre), len(ix.vals))
	}
	if err := ix.tree.Check(); err != nil {
		return err
	}
	// One walk: each boundary closes the piece [prevPos, pos) holding values
	// in [prevKey, key), and its sum must equal the running sum of everything
	// scanned so far. Sorted, every value bounds the next from below.
	var (
		err     error
		prevPos int
		prevKey int64
		hasPrev bool
		run     int64
	)
	scanPiece := func(end int, hi int64, hasHi bool) {
		for i := prevPos; i < end && err == nil; i++ {
			v := ix.at(i)
			switch {
			case hasPrev && v < prevKey:
				err = fmt.Errorf("cracker: value %d = %d below piece bound %d", i, v, prevKey)
			case hasHi && v >= hi:
				err = fmt.Errorf("cracker: value %d = %d not below piece bound %d", i, v, hi)
			}
			run += v
			if ix.sorted {
				prevKey, hasPrev = v, true
				if err == nil && ix.pre[i+1] != run {
					err = fmt.Errorf("cracker: prefix sum %d at %d, the values below it add to %d", ix.pre[i+1], i+1, run)
				}
			}
		}
	}
	ix.tree.Walk(func(key int64, pos int, sum int64) bool {
		if pos > n { // Check saw the positions ascend
			err = fmt.Errorf("cracker: boundary %d has position %d past the copy's %d values", key, pos, n)
			return false
		}
		scanPiece(pos, key, true)
		if err == nil && sum != run {
			err = fmt.Errorf("cracker: boundary %d at position %d carries sum %d, the values below it add to %d", key, pos, sum, run)
		}
		prevPos, prevKey, hasPrev = pos, key, true
		return err == nil
	})
	if err == nil {
		scanPiece(n, 0, false)
	}
	return err
}
