// Package cracktree implements the cracker index tree: an ordered map from
// crack boundary values to positions in a cracked column copy, laid out for
// the cache. Boundaries live in fixed-capacity sorted blocks of three
// parallel arrays (keys, positions, prefix sums), and a dense array holds
// each block's first key, so a lookup is two binary searches over contiguous
// memory.
//
// For a boundary with key v and position p the invariant is: every element of
// the cracked array at a position < p has a value < v, and every element at a
// position >= p has a value >= v. Consecutive boundaries therefore delimit
// "pieces": maximal contiguous regions whose value bounds are known but whose
// contents are unsorted. Positions are non-decreasing in key order, so the
// same two-level search works by position. Database cracking refines pieces
// over time by inserting new boundaries; the tree must support ordered
// lookups (the piece around a key, Locate; the floor of a position),
// in-order traversal for piece enumeration, and one rewriting walk, in either
// direction, over the boundaries above a key — the walk a batched merge moves
// every piece above its lowest value with.
//
// Every boundary also carries sum, the wrapping (mod 2^64) sum of the cracked
// array's values at positions < p. The tree only stores it; the cracker seeds
// it when it inserts a boundary, rewrites it when a merge moves the boundary,
// and reads it to answer a range aggregate as the difference of two
// boundaries instead of a scan.
package cracktree

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// blockCap is the number of boundaries a block holds, picked with
// BenchmarkLocate: one block is 2.5 KB, searched in seven probes.
const blockCap = 128

// block is a sorted run of boundaries. It holds no pointers, so the garbage
// collector never scans it. Positions fit in 32 bits: a part holds at most
// shard.MaxRows = 2^32-1 rows.
type block struct {
	n    int
	keys [blockCap]int64
	pos  [blockCap]uint32
	sums [blockCap]int64
}

// Tree is an ordered set of crack boundaries. The zero value is an empty tree
// ready to use.
type Tree struct {
	firsts []int64 // firsts[b] == blocks[b].keys[0]
	blocks []*block
	size   int
}

// Len returns the number of boundaries stored in the tree.
func (t *Tree) Len() int { return t.size }

// seek returns the block that holds the last boundary with a key <= key and
// that boundary's index in it; i is -1, in block 0, when every key is above.
// The tree is not empty.
func (t *Tree) seek(key int64) (b, i int) {
	b = max(sort.Search(len(t.firsts), func(b int) bool { return t.firsts[b] > key })-1, 0)
	x := t.blocks[b]
	return b, sort.Search(x.n, func(i int) bool { return x.keys[i] > key }) - 1
}

// seekPos is seek by position: the block and index of the last boundary with
// a position <= pos, by key order among equal positions; i is -1, in block
// 0, when every position is above.
func (t *Tree) seekPos(pos int) (b, i int) {
	b = max(sort.Search(len(t.blocks), func(b int) bool { return int(t.blocks[b].pos[0]) > pos })-1, 0)
	x := t.blocks[b]
	return b, sort.Search(x.n, func(i int) bool { return int(x.pos[i]) > pos }) - 1
}

// Insert records a boundary key -> (pos, sum). If the key is already present
// both are overwritten. It reports whether a new boundary was created.
//
// A full block splits in half, except when the key lands past its last key:
// then the key opens the next block if that has room, or a new block of its
// own otherwise. Ascending inserts therefore fill every block but the last.
func (t *Tree) Insert(key int64, pos int, sum int64) bool {
	if len(t.blocks) == 0 {
		t.firsts, t.blocks = append(t.firsts, key), append(t.blocks, &block{})
	}
	b, i := t.seek(key)
	x := t.blocks[b]
	if i >= 0 && x.keys[i] == key {
		x.pos[i], x.sums[i] = uint32(pos), sum
		return false
	}
	i++ // the insertion point
	if x.n == blockCap {
		switch {
		case i < blockCap:
			y := &block{n: blockCap / 2}
			copy(y.keys[:], x.keys[blockCap/2:])
			copy(y.pos[:], x.pos[blockCap/2:])
			copy(y.sums[:], x.sums[blockCap/2:])
			x.n = blockCap / 2
			t.blocks, t.firsts = slices.Insert(t.blocks, b+1, y), slices.Insert(t.firsts, b+1, y.keys[0])
			if i > blockCap/2 {
				b, i, x = b+1, i-blockCap/2, y
			}
		case b+1 < len(t.blocks) && t.blocks[b+1].n < blockCap:
			b, i, x = b+1, 0, t.blocks[b+1]
		default:
			b, i, x = b+1, 0, &block{}
			t.blocks, t.firsts = slices.Insert(t.blocks, b, x), slices.Insert(t.firsts, b, key)
		}
	}
	copy(x.keys[i+1:x.n+1], x.keys[i:x.n])
	copy(x.pos[i+1:x.n+1], x.pos[i:x.n])
	copy(x.sums[i+1:x.n+1], x.sums[i:x.n])
	x.keys[i], x.pos[i], x.sums[i] = key, uint32(pos), sum
	x.n++
	if i == 0 {
		t.firsts[b] = key
	}
	t.size++
	return true
}

// Locate finds the piece a key falls in: the positions [start, end) between
// the last boundary at or below key and the first one above it, with n — the
// length of the cracked array — closing the last piece and 0 opening the
// first. base is the prefix sum at start (0 without a boundary below) and
// exact says key itself is a boundary, the one that starts the piece. It is
// one binary search over the first keys and one inside the block they pick;
// the piece's end may be the next block's first entry.
func (t *Tree) Locate(key int64, n int) (start, end int, base int64, exact bool) {
	if len(t.blocks) == 0 {
		return 0, n, 0, false
	}
	b, i := t.seek(key)
	if i < 0 {
		return 0, int(t.blocks[0].pos[0]), 0, false
	}
	x := t.blocks[b]
	switch end = n; {
	case i+1 < x.n:
		end = int(x.pos[i+1])
	case b+1 < len(t.blocks):
		end = int(t.blocks[b+1].pos[0])
	}
	return int(x.pos[i]), end, x.sums[i], x.keys[i] == key
}

// FloorPos returns the boundary with the largest position <= pos. When
// several boundaries share that position (zero-width pieces) the one with
// the largest key wins, so the returned boundary is the true lower bound of
// the piece starting at pos. Boundaries sharing a position share a sum, so
// sum is the prefix sum at p whichever of them wins.
func (t *Tree) FloorPos(pos int) (k int64, p int, sum int64, ok bool) {
	if len(t.blocks) > 0 {
		if b, i := t.seekPos(pos); i >= 0 {
			x := t.blocks[b]
			return x.keys[i], int(x.pos[i]), x.sums[i], true
		}
	}
	return 0, 0, 0, false
}

// Walk visits every boundary in ascending key order. The visit function
// returns false to stop the walk early.
func (t *Tree) Walk(visit func(key int64, pos int, sum int64) bool) {
	t.WalkFrom(math.MinInt64, visit)
}

// WalkFrom visits every boundary whose key is >= from in ascending key
// order, starting at the first such key instead of walking the whole tree.
// The visit function returns false to stop the walk early.
func (t *Tree) WalkFrom(from int64, visit func(key int64, pos int, sum int64) bool) {
	if len(t.blocks) == 0 {
		return
	}
	b, i := t.seek(from)
	if i >= 0 && t.blocks[b].keys[i] == from {
		i--
	}
	for ; b < len(t.blocks); b, i = b+1, -1 {
		x := t.blocks[b]
		for i++; i < x.n; i++ {
			if !visit(x.keys[i], int(x.pos[i]), x.sums[i]) {
				return
			}
		}
	}
}

// Rewrite visits every boundary whose key is strictly greater than above —
// in ascending key order, or descending when down is set — and replaces its
// position and prefix sum with what visit returns. A merge walks exactly the
// boundaries above its batch's lowest value, reading where each piece starts
// and recording where it ends up in the same visit. The new positions must
// stay non-decreasing in key order.
func (t *Tree) Rewrite(above int64, down bool, visit func(key int64, pos int, sum int64) (int, int64)) {
	if len(t.blocks) == 0 {
		return
	}
	b0, i0 := t.seek(above) // the walk starts at entry i0+1 of block b0
	for j := range len(t.blocks) - b0 {
		b := b0 + j
		if down {
			b = len(t.blocks) - 1 - j
		}
		x, lo := t.blocks[b], 0
		if b == b0 {
			lo = i0 + 1
		}
		for k := range x.n - lo {
			i := lo + k
			if down {
				i = x.n - 1 - k
			}
			p, sum := visit(x.keys[i], int(x.pos[i]), x.sums[i])
			x.pos[i], x.sums[i] = uint32(p), sum
		}
	}
}

// Check verifies the layout: keys strictly ascend within and across blocks,
// each first-key entry equals its block's first key, no block is empty or
// over capacity, positions never decrease and Len counts every boundary.
func (t *Tree) Check() error {
	if len(t.firsts) != len(t.blocks) {
		return fmt.Errorf("cracktree: %d first keys for %d blocks", len(t.firsts), len(t.blocks))
	}
	size := 0
	var prevKey int64
	var prevPos uint32
	for b, x := range t.blocks {
		if x.n < 1 || x.n > blockCap || t.firsts[b] != x.keys[0] {
			return fmt.Errorf("cracktree: block %d holds %d boundaries from key %d, its first-key entry says %d", b, x.n, x.keys[0], t.firsts[b])
		}
		for i := range x.n {
			if size > 0 && (x.keys[i] <= prevKey || x.pos[i] < prevPos) {
				return fmt.Errorf("cracktree: boundary %d at position %d follows boundary %d at position %d", x.keys[i], x.pos[i], prevKey, prevPos)
			}
			prevKey, prevPos = x.keys[i], x.pos[i]
			size++
		}
	}
	if size != t.size {
		return fmt.Errorf("cracktree: Len %d, blocks hold %d", t.size, size)
	}
	return nil
}
