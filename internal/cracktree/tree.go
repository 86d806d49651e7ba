// Package cracktree implements the cracker index tree: a self-balancing
// (AVL) binary search tree that maps crack boundary values to positions in a
// cracked column copy.
//
// For a boundary with key v and position p the invariant is: every element of
// the cracked array at a position < p has a value < v, and every element at a
// position >= p has a value >= v. Consecutive boundaries therefore delimit
// "pieces": maximal contiguous regions whose value bounds are known but whose
// contents are unsorted. Database cracking refines pieces over time by
// inserting new boundaries; the tree must support ordered lookups (exact by
// key; the piece around a key in one descent, Locate; floor and higher by
// position), in-order traversal for piece enumeration, and one rewriting
// walk, in either direction, over the boundaries above a key — the walk a
// batched merge moves every piece above its lowest value with.
//
// Every boundary also carries sum, the wrapping (mod 2^64) sum of the cracked
// array's values at positions < p. The tree only stores it; the cracker seeds
// it when it inserts a boundary, rewrites it when a merge moves the boundary,
// and reads it to answer a range aggregate as the difference of two
// boundaries instead of a scan.
package cracktree

// Tree is an AVL tree of crack boundaries. The zero value is an empty tree
// ready to use.
type Tree struct {
	root *node
	size int
}

type node struct {
	key         int64 // boundary value
	pos         int   // first position whose value is >= key
	sum         int64 // wrapping sum of the values at positions < pos
	left, right *node
	height      int8
}

// Len returns the number of boundaries stored in the tree.
func (t *Tree) Len() int { return t.size }

// Height returns the height of the tree (0 for an empty tree).
func (t *Tree) Height() int {
	return int(height(t.root))
}

func height(n *node) int8 {
	if n == nil {
		return 0
	}
	return n.height
}

func balanceFactor(n *node) int {
	return int(height(n.left)) - int(height(n.right))
}

func fix(n *node) {
	hl, hr := height(n.left), height(n.right)
	if hl > hr {
		n.height = hl + 1
	} else {
		n.height = hr + 1
	}
}

func rotateRight(y *node) *node {
	x := y.left
	y.left = x.right
	x.right = y
	fix(y)
	fix(x)
	return x
}

func rotateLeft(x *node) *node {
	y := x.right
	x.right = y.left
	y.left = x
	fix(x)
	fix(y)
	return y
}

func rebalance(n *node) *node {
	fix(n)
	bf := balanceFactor(n)
	switch {
	case bf > 1:
		if balanceFactor(n.left) < 0 {
			n.left = rotateLeft(n.left)
		}
		return rotateRight(n)
	case bf < -1:
		if balanceFactor(n.right) > 0 {
			n.right = rotateRight(n.right)
		}
		return rotateLeft(n)
	}
	return n
}

// Insert records a boundary key -> (pos, sum). If the key is already present
// both are overwritten. It reports whether a new boundary was created.
func (t *Tree) Insert(key int64, pos int, sum int64) bool {
	var added bool
	t.root, added = insert(t.root, key, pos, sum)
	if added {
		t.size++
	}
	return added
}

func insert(n *node, key int64, pos int, sum int64) (*node, bool) {
	if n == nil {
		return &node{key: key, pos: pos, sum: sum, height: 1}, true
	}
	var added bool
	switch {
	case key < n.key:
		n.left, added = insert(n.left, key, pos, sum)
	case key > n.key:
		n.right, added = insert(n.right, key, pos, sum)
	default:
		n.pos, n.sum = pos, sum
		return n, false
	}
	return rebalance(n), added
}

// Get returns the position and prefix sum recorded for an exact boundary key.
func (t *Tree) Get(key int64) (pos int, sum int64, ok bool) {
	n := t.root
	for n != nil {
		switch {
		case key < n.key:
			n = n.left
		case key > n.key:
			n = n.right
		default:
			return n.pos, n.sum, true
		}
	}
	return 0, 0, false
}

// Locate finds, in one descent, the piece a key falls in: the positions
// [start, end) between the last boundary at or below key and the first one
// above it, with n — the length of the cracked array — closing the last piece
// and 0 opening the first. base is the prefix sum at start (0 without a
// boundary below) and exact says key itself is a boundary, the one that
// starts the piece. The descent remembers the last node it passed on the
// right as the floor and the last it passed on the left as the ceiling; on an
// exact hit the ceiling is instead the leftmost node of the right subtree, if
// there is one — still the same root-to-leaf path.
func (t *Tree) Locate(key int64, n int) (start, end int, base int64, exact bool) {
	end = n
	x := t.root
	for x != nil {
		switch {
		case key < x.key:
			end = x.pos
			x = x.left
		case key > x.key:
			start, base = x.pos, x.sum
			x = x.right
		default:
			for s := x.right; s != nil; s = s.left {
				end = s.pos
			}
			return x.pos, end, x.sum, true
		}
	}
	return start, end, base, false
}

// FloorPos returns the boundary with the largest position <= pos. When
// several boundaries share that position (zero-width pieces) the one with
// the largest key wins, so the returned boundary is the true lower bound of
// the piece starting at pos. Positions are non-decreasing in key order, so
// an ordinary BST descent works. Boundaries sharing a position share a sum,
// so sum is the prefix sum at p whichever of them wins.
func (t *Tree) FloorPos(pos int) (k int64, p int, sum int64, ok bool) {
	n := t.root
	for n != nil {
		if n.pos <= pos {
			k, p, sum, ok = n.key, n.pos, n.sum, true
			n = n.right
		} else {
			n = n.left
		}
	}
	return k, p, sum, ok
}

// HigherPos returns the boundary with the smallest position strictly greater
// than pos; among equals the smallest key wins. It is the piece-end
// counterpart of FloorPos.
func (t *Tree) HigherPos(pos int) (k int64, p int, ok bool) {
	n := t.root
	for n != nil {
		if n.pos > pos {
			k, p, ok = n.key, n.pos, true
			n = n.left
		} else {
			n = n.right
		}
	}
	return k, p, ok
}

// Walk visits every boundary in ascending key order. The visit function
// returns false to stop the walk early.
func (t *Tree) Walk(visit func(key int64, pos int, sum int64) bool) {
	walk(t.root, visit)
}

func walk(n *node, visit func(int64, int, int64) bool) bool {
	if n == nil {
		return true
	}
	if !walk(n.left, visit) {
		return false
	}
	if !visit(n.key, n.pos, n.sum) {
		return false
	}
	return walk(n.right, visit)
}

// WalkFrom visits every boundary whose key is >= from in ascending key
// order, descending straight to the first such key instead of walking the
// whole tree: O(height + visited). The visit function returns false to stop
// the walk early.
func (t *Tree) WalkFrom(from int64, visit func(key int64, pos int, sum int64) bool) {
	walkFrom(t.root, from, visit)
}

func walkFrom(n *node, from int64, visit func(int64, int, int64) bool) bool {
	if n == nil {
		return true
	}
	if n.key < from {
		// n and its whole left subtree lie below from.
		return walkFrom(n.right, from, visit)
	}
	if !walkFrom(n.left, from, visit) {
		return false
	}
	if !visit(n.key, n.pos, n.sum) {
		return false
	}
	// Everything right of n is > n.key >= from: no more pruning needed.
	return walk(n.right, visit)
}

// Rewrite visits every boundary whose key is strictly greater than above —
// in ascending key order, or descending when down is set — and replaces its
// position and prefix sum with what visit returns: O(height + visited). A
// merge walks exactly the boundaries above its batch's lowest value, reading
// where each piece starts and recording where it ends up in the same visit.
// The new positions must stay non-decreasing in key order.
func (t *Tree) Rewrite(above int64, down bool, visit func(key int64, pos int, sum int64) (int, int64)) {
	rewrite(t.root, above, down, visit)
}

func rewrite(n *node, above int64, down bool, visit func(int64, int, int64) (int, int64)) {
	for n != nil && n.key <= above {
		n = n.right // n and its whole left subtree lie at or below above
	}
	if n == nil {
		return
	}
	first, second := n.left, n.right
	if down {
		first, second = second, first
	}
	rewrite(first, above, down, visit)
	n.pos, n.sum = visit(n.key, n.pos, n.sum)
	rewrite(second, above, down, visit)
}
