package cracker

// Ripple updates for cracked columns, after "Updating a Cracked Database"
// (Idreos, Kersten, Manegold, SIGMOD 2007). Inserting into or deleting from a
// cracked copy must preserve every piece's value bounds without rewriting the
// whole array. Because tuple order *within* a piece carries no information,
// an insert only needs to move one element per piece: each piece above the
// target donates its first slot to the piece below, shifting boundaries by
// one. Deletes run the same dance in reverse.
//
// The array below every boundary above the touched piece gains (or loses)
// exactly the one value v, so the same tree walk that shifts those boundaries'
// positions by one shifts their prefix sums by v.
//
// Ripples shift the positions of every piece above the touched one, so
// positions handed out earlier go stale: the owner excludes every other user
// of the index (its exclusive latch) around them — see the Index comment.

// RippleInsert inserts value v with base row id r into the cracked copy,
// keeping all piece invariants intact. Cost is one element move per piece
// above v's.
func (ix *Index) RippleInsert(v int64, r uint32) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(ix.vals) == 0 {
		// Nothing left to bound the domain; boundaries that outlived the last
		// delete still get the shift below.
		ix.domLo, ix.domHi = v, v
	}
	// Collect the start positions of every piece strictly above v's piece,
	// i.e. every boundary with key > v, in ascending order.
	var starts []int
	ix.tree.WalkFrom(v, func(key int64, pos int, _ int64) bool {
		if key > v {
			starts = append(starts, pos)
		}
		return true
	})
	// Open a free slot at the end, then ripple it down: the first element of
	// each higher piece moves to the free slot just past that piece's end.
	ix.vals = append(ix.vals, 0)
	ix.rows = append(ix.rows, 0)
	free := len(ix.vals) - 1
	for i := len(starts) - 1; i >= 0; i-- {
		s := starts[i]
		ix.vals[free] = ix.vals[s]
		ix.rows[free] = ix.rows[s]
		free = s
	}
	ix.vals[free] = v
	ix.rows[free] = r
	ix.tree.ShiftAfter(v, 1, v)
	if v < ix.domLo {
		ix.domLo = v
	}
	if v > ix.domHi {
		ix.domHi = v
	}
}

// RippleDelete removes one occurrence of value v from the cracked copy,
// returning its base row id. Ok is false if v is not present. Cost is a scan
// of v's piece plus one element move per piece above it.
func (ix *Index) RippleDelete(v int64) (r uint32, ok bool) {
	return ix.rippleDelete(v, 0, false)
}

// RippleDeleteRow removes the entry for value v belonging to base row `row`.
// Ok is false if that (value, row) pair is not present. Multi-column tables
// use it to remove the same logical row from every column's index.
func (ix *Index) RippleDeleteRow(v int64, row uint32) bool {
	_, ok := ix.rippleDelete(v, row, true)
	return ok
}

func (ix *Index) rippleDelete(v int64, row uint32, matchRow bool) (r uint32, ok bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(ix.vals) == 0 {
		return 0, false
	}
	a, b, _, _ := ix.tree.Locate(v, len(ix.vals))
	at := -1
	for i := a; i < b; i++ {
		if ix.vals[i] == v && (!matchRow || ix.rows[i] == row) {
			at = i
			break
		}
	}
	if at < 0 {
		return 0, false
	}
	r = ix.rows[at]
	// Fill the hole with the last element of the piece; the hole is now at
	// the piece's end.
	ix.vals[at] = ix.vals[b-1]
	ix.rows[at] = ix.rows[b-1]
	hole := b - 1
	// Ripple the hole up: each higher piece's last element drops into the
	// slot just before that piece's start.
	var bounds []int // start positions of pieces above v's, ascending
	ix.tree.WalkFrom(v, func(key int64, pos int, _ int64) bool {
		if key > v {
			bounds = append(bounds, pos)
		}
		return true
	})
	for i := range bounds {
		end := len(ix.vals)
		if i+1 < len(bounds) {
			end = bounds[i+1]
		}
		// Piece occupies [s, end); hole sits at s-1. Move the piece's last
		// element down into the hole; the piece then occupies [s-1, end-1).
		if end-1 != hole {
			ix.vals[hole] = ix.vals[end-1]
			ix.rows[hole] = ix.rows[end-1]
		}
		hole = end - 1
	}
	ix.vals = ix.vals[:len(ix.vals)-1]
	ix.rows = ix.rows[:len(ix.rows)-1]
	ix.tree.ShiftAfter(v, -1, -v)
	return r, true
}
