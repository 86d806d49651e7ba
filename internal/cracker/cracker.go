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
// A select only counts and sums values, so a copy starts values-only: every
// crack, radix pass, sort and merge moves 8 bytes a value, and the copy
// costs no more than the column. Only a DELETE's first-live lookup
// (MinRowOf) asks which base row an entry is; the owner attaches row ids
// before its first one (AttachRows, attach.go), and from then on they move
// in lockstep with the values. A values-only merge deletes by value: count
// and sum depend only on the multiset, and the owner's tombstone keeps the
// row's identity.
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
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"

	"holistic/internal/cracktree"
)

// Index is a cracker index over a single column.
//
// Concurrency: one reader/writer latch per index (mu) guards the crack tree
// and the physical order of the cracked copy together. Every exported method
// takes it itself — shared for lookups and aggregates, exclusive for anything
// that moves values or boundaries (a crack is locate-piece + partition +
// boundary insert under one exclusive hold) — so any number of goroutines
// may select, aggregate and refine one index at once, and a read costs the
// same latch work however many pieces its range spans. Parallelism comes
// from sharding (package shard gives every shard a private index), not from
// latching below the index.
//
// rows is nil while the copy is values-only (see "Row ids on demand");
// once attached it is as long as vals and rows[i] is the base row of
// vals[i].
//
// Positions returned by one call (CrackRange, LookupRange) stay
// valid for a later call (CountSum) only while no structural operation runs
// in between: cracks never move a value across an existing boundary and
// never move a boundary, but Merge does. The owner therefore holds its own
// latch shared around a lookup-then-aggregate pair and exclusively around
// Merge and any use of Values/Rows.
type Index struct {
	mu   sync.RWMutex
	vals []int64
	rows []uint32
	tree cracktree.Tree

	// sorted marks the full index (see "The sorted state"); pre[i] is then
	// the wrapping sum of vals[:i], len(vals)+1 entries.
	sorted bool
	pre    []int64

	// Domain bounds of the stored values, cached at construction and widened
	// by cracked merges; only radix passes read them, so a sorted index lets
	// them go stale.
	domLo, domHi int64

	// radixMin is the piece-size threshold for radix-first coarse cracking
	// (see radix.go); <= 0 disables it. Set once via SetRadixMinPiece before
	// the index is shared.
	radixMin int

	cracks atomic.Int64 // crack actions performed (boundaries inserted)
	work   atomic.Int64 // elements touched by partitioning, the dominant cost
}

// New builds a cracker index that adopts vals and rows (no copy). rows is
// nil for a values-only index; otherwise both slices have the same length
// and rows[i] is the base row id of vals[i].
func New(vals []int64, rows []uint32) *Index {
	ix := &Index{vals: vals, rows: rows}
	if len(vals) > 0 {
		lo, hi := vals[0], vals[0]
		for _, v := range vals[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		ix.domLo, ix.domHi = lo, hi
	}
	return ix
}

// Len returns the number of values in the index.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.vals)
}

// Pieces returns the number of pieces the column is currently cracked into.
// An uncracked, non-empty column is one piece, a sorted one one per value.
func (ix *Index) Pieces() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.pieces()
}

func (ix *Index) pieces() int {
	if ix.sorted || len(ix.vals) == 0 {
		return len(ix.vals)
	}
	return ix.tree.Len() + 1
}

// Cracks returns the number of crack actions (boundary insertions) so far.
func (ix *Index) Cracks() int { return int(ix.cracks.Load()) }

// Work returns the cumulative number of elements touched by partitioning.
func (ix *Index) Work() int64 { return ix.work.Load() }

// AvgPieceSize returns the mean piece size, or 0 for an empty index.
func (ix *Index) AvgPieceSize() float64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	p := ix.pieces()
	if p == 0 {
		return 0
	}
	return float64(len(ix.vals)) / float64(p)
}

// Values exposes the cracked copy. Callers must treat it as read-only and
// hold the index exclusively through the owner's latch (see the Index
// comment): a concurrent crack reorders — a radix pass even replaces — the
// array.
func (ix *Index) Values() []int64 { return ix.vals }

// Rows exposes the base row ids aligned with Values, under the same rule:
// nil while the index is values-only.
func (ix *Index) Rows() []uint32 { return ix.rows }

// HasRows reports whether row ids are attached (see "Row ids on demand").
func (ix *Index) HasRows() bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.rows != nil
}

// MinRowOf returns the lowest base row id among the entries holding exactly
// value v for which live reports true. It reads v's piece under the shared
// latch and cracks nothing, so its cost is that piece's size — or, sorted,
// the run of v's duplicates — the point lookup a DELETE resolves its row
// with. live runs under the latch and must not call back into the index.
// A values-only index names no row: the caller attaches row ids first
// (AttachRows).
func (ix *Index) MinRowOf(v int64, live func(row uint32) bool) (row uint32, ok bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.rows == nil {
		return 0, false
	}
	a, b, _, _ := ix.locate(v)
	if ix.sorted { // the run of duplicates starts at a
		for b < len(ix.vals) && ix.vals[b] == v {
			b++
		}
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

// locate is tree.Locate for either state: a sorted index answers every
// bound exactly, by binary search. The caller holds the index latch.
func (ix *Index) locate(v int64) (start, end int, sum int64, exact bool) {
	if ix.sorted {
		at := sort.Search(len(ix.vals), func(i int) bool { return ix.vals[i] >= v })
		return at, at, ix.pre[at], true
	}
	return ix.tree.Locate(v, len(ix.vals))
}

// lookup locates both bounds of [lo, hi). When both already are boundaries —
// ok — it returns their positions and the sum of the values between them.
// Otherwise work is the number of values a crack would have to partition to
// make them so: the sizes of the one or two pieces the missing bounds fall in
// (0 for an empty range or index, where there is nothing to crack). The caller
// holds the index latch.
func (ix *Index) lookup(lo, hi int64) (from, to int, sum int64, work int, ok bool) {
	if lo >= hi || len(ix.vals) == 0 {
		return 0, 0, 0, 0, false
	}
	aL, bL, sLo, okLo := ix.locate(lo)
	aH, bH, sHi, okHi := ix.locate(hi)
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
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	from, to, _, _, ok = ix.lookup(lo, hi)
	return from, to, ok
}

// LookupCountSum answers [lo, hi) — tuple count and sum of values, the
// projection checksum the engine uses to compare strategies — when crack
// boundaries already exist for both bounds: one shared latch acquisition, two
// tree lookups and a subtraction, whatever the number of pieces or values in
// between; the cracked copy is not read. ok false means a bound is not a
// boundary yet (or the range or index is empty); work then says how many
// values CrackCountSum would partition as the index stands (see lookup) — what
// the caller weighs before deciding where to run the crack.
func (ix *Index) LookupCountSum(lo, hi int64) (count int, sum int64, work int, ok bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	from, to, sum, work, ok := ix.lookup(lo, hi)
	return to - from, sum, work, ok
}

// CrackCountSum is the select operator: it answers [lo, hi) from the
// boundaries when both exist (LookupCountSum) and otherwise cracks them in
// under the exclusive latch and answers from the positions and sums of the
// boundaries it just made. An empty or inverted range yields (0, 0).
func (ix *Index) CrackCountSum(lo, hi int64) (count int, sum int64) {
	if count, sum, _, ok := ix.LookupCountSum(lo, hi); ok || lo >= hi {
		return count, sum
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(ix.vals) == 0 {
		return 0, 0
	}
	from, to, sum := ix.crackRange(lo, hi)
	return to - from, sum
}

// CrackRange ensures crack boundaries exist for lo and hi and returns the
// contiguous region [from, to) of the cracked copy that holds exactly the
// values in [lo, hi). It is the select operator's core: the first query on a
// range pays for partitioning under the exclusive latch, later queries on
// the same bounds are pure lookups under the shared one. An empty or
// inverted range yields (0, 0).
func (ix *Index) CrackRange(lo, hi int64) (from, to int) {
	if from, to, ok := ix.LookupRange(lo, hi); ok || lo >= hi {
		return from, to
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(ix.vals) == 0 {
		return 0, 0
	}
	from, to, _ = ix.crackRange(lo, hi)
	return from, to
}

// CrackRangeConcurrent is CrackRange; the name is kept because the frozen
// benchmark rig (bench/) calls it.
func (ix *Index) CrackRangeConcurrent(lo, hi int64) (from, to int) {
	return ix.CrackRange(lo, hi)
}

// crackRange is CrackRange with the exclusive latch held, lo < hi and a
// non-empty copy; sum is the sum of the values in [from, to). Each bound is
// located once: a crack never moves a boundary or a value across one, so
// cracking lo's piece leaves what was located for hi in another piece valid.
func (ix *Index) crackRange(lo, hi int64) (from, to int, sum int64) {
	aL, bL, sLo, okLo := ix.locate(lo)
	aH, bH, sHi, okHi := ix.locate(hi)
	if !okLo && !okHi && aL == aH && bL == bH {
		// Both bounds fall inside the same piece. A large cold piece takes a
		// radix coarse pass first, after which the bounds land in (possibly
		// different) buckets — re-dispatch. Recursion depth is bounded by the
		// radix level count (the span shrinks 2^radixBits-fold per level).
		if ix.maybeRadixPiece(aL, bL) {
			return ix.crackRange(lo, hi)
		}
		// Crack in three: one pass over the piece for both bounds.
		m1, m2, sumLow, sumMid := partition3(ix.vals, ix.rows, aL, bL, lo, hi)
		ix.tree.Insert(lo, m1, sLo+sumLow)
		ix.tree.Insert(hi, m2, sLo+sumLow+sumMid)
		ix.cracks.Add(2)
		ix.work.Add(int64(bL - aL))
		return m1, m2, sumMid
	}
	if !okLo {
		aL, sLo = ix.crackIn(lo, aL, bL, sLo)
	}
	if !okHi {
		aH, sHi = ix.crackIn(hi, aH, bH, sHi)
	}
	return aL, aH, sHi - sLo
}

// crackIn inserts a boundary for v, which Locate found absent in the piece
// [a, b) above base, and returns its position and prefix sum. The caller
// holds the exclusive latch.
func (ix *Index) crackIn(v int64, a, b int, base int64) (pos int, sum int64) {
	for ix.maybeRadixPiece(a, b) {
		// v now falls in one bucket of the piece — or the pass put a boundary
		// exactly at v, and there is nothing left to sweep.
		var exact bool
		if a, b, base, exact = ix.locate(v); exact {
			return a, base
		}
	}
	m, sumLow := partition2(ix.vals, ix.rows, a, b, v)
	ix.tree.Insert(v, m, base+sumLow)
	ix.cracks.Add(1)
	ix.work.Add(int64(b - a))
	return m, base + sumLow
}

// splitAt cracks the piece containing v around pivot v under the exclusive
// latch. It reports the size of the piece partitioned (the work done) and
// whether a new boundary was created; its one Locate also catches a
// goroutine that cracked at exactly v since the caller last looked.
func (ix *Index) splitAt(v int64) (pieceSize int, cracked bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(ix.vals) == 0 {
		return 0, false
	}
	a, b, base, exact := ix.locate(v)
	if exact {
		return 0, false
	}
	ix.crackIn(v, a, b, base)
	return b - a, true
}

// RandomCrack is one random refinement action, the paper's idle-time work
// unit: it draws a uniformly random element of the copy and cracks at its
// value. It reports the work done (values partitioned). Under the shared
// latch alone it returns 0 when that value already is a boundary, when its
// piece holds one value, or when no value of the piece lies below it — a
// crack there would leave an empty piece — as always on a sorted index. That
// scan stops at the first smaller value, which a random element usually
// meets within a few reads.
func (ix *Index) RandomCrack(rng *rand.Rand) int {
	ix.mu.RLock()
	split := false
	var v int64
	if n := len(ix.vals); n > 0 {
		v = ix.vals[rng.IntN(n)]
		a, b, _, exact := ix.locate(v)
		split = !exact && b-a > 1 && anyBelow(ix.vals[a:b], v)
	}
	ix.mu.RUnlock()
	if !split {
		return 0
	}
	// Straight to the exclusive latch: the pivot was read from the copy a
	// moment ago, and splitAt locates it again.
	size, _ := ix.splitAt(v)
	return size
}

// anyBelow reports whether some value in vals is < v.
func anyBelow(vals []int64, v int64) bool {
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
// runs under the shared latch and must not call back into the index.
func (ix *Index) ForEachPiece(visit func(Piece) bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ix.forEachPiece(visit)
}

func (ix *Index) forEachPiece(visit func(Piece) bool) {
	if len(ix.vals) == 0 {
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
	visit(Piece{Start: prevPos, End: len(ix.vals), Lo: prevKey, HasLo: hasPrev})
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
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	switch {
	case len(ix.vals) == 0:
		return 0
	case ix.sorted:
		return 1
	}
	// The overlapping pieces run from lo's piece up to the first boundary at
	// or above hi; every boundary strictly between starts one more piece.
	from, _, _, _ := ix.tree.Locate(lo, len(ix.vals))
	to, pieces := len(ix.vals), 1
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
// position is a boundary's, which is what those calls return. Positions are
// clamped to the copy; an empty or inverted region yields (0, 0).
func (ix *Index) CountSum(from, to int) (int, int64) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	from, to = max(from, 0), min(to, len(ix.vals))
	if from >= to {
		return 0, 0
	}
	return to - from, ix.prefixSum(to) - ix.prefixSum(from)
}

// prefixSum returns the wrapping sum of vals[:pos], 0 <= pos <= len(vals):
// the sum carried by the last boundary at or below pos plus the values
// between that boundary and pos. The caller holds the index latch.
func (ix *Index) prefixSum(pos int) int64 {
	if ix.sorted {
		return ix.pre[pos]
	}
	_, p, sum, _ := ix.tree.FloorPos(pos) // no boundary: p = 0, sum = 0
	return sum + sumInt64(ix.vals[p:pos])
}

// sumInt64 adds vals into four independent accumulators: one is a serial
// dependency chain whose speed depends on where the linker places the loop
// (±15 % measured), four keep the adders busy wherever it lands. Re-slicing by
// a checked length drops every bounds check; wrap-around is the plain loop's,
// int64 addition being associative and commutative modulo 2^64. No select
// or crack calls it: it reads CountSum's ragged edges and re-derives the
// boundary sums in RestoreIndex.
func sumInt64(vals []int64) int64 {
	var s0, s1, s2, s3 int64
	for len(vals) >= 4 {
		s0 += vals[0]
		s1 += vals[1]
		s2 += vals[2]
		s3 += vals[3]
		vals = vals[4:]
	}
	for _, v := range vals {
		s0 += v
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
//   - a sorted index has no boundaries, each value is >= the one before it,
//     and each prefix sum is the wrapping sum of the values below it.
//
// It is exported for use by tests across packages.
func (ix *Index) Validate() error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
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
			switch v := ix.vals[i]; {
			case hasPrev && v < prevKey:
				err = fmt.Errorf("cracker: vals[%d]=%d below piece bound %d", i, v, prevKey)
			case hasHi && v >= hi:
				err = fmt.Errorf("cracker: vals[%d]=%d not below piece bound %d", i, v, hi)
			}
			run += ix.vals[i]
			if ix.sorted {
				prevKey, hasPrev = ix.vals[i], true
				if err == nil && ix.pre[i+1] != run {
					err = fmt.Errorf("cracker: prefix sum %d at %d, the values below it add to %d", ix.pre[i+1], i+1, run)
				}
			}
		}
	}
	ix.tree.Walk(func(key int64, pos int, sum int64) bool {
		if pos > len(ix.vals) { // Check saw the positions ascend
			err = fmt.Errorf("cracker: boundary %d has position %d past the copy's %d values", key, pos, len(ix.vals))
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
		scanPiece(len(ix.vals), 0, false)
	}
	return err
}
