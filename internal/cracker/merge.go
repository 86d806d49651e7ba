package cracker

import (
	"slices"

	"holistic/internal/updates"
)

// Batched merges for cracked columns: the merge-ripple of "Updating a
// Cracked Database" (Idreos, Kersten, Manegold, SIGMOD 2007). Tuple order
// inside a piece carries no information, so a piece that must slide by c
// slots moves only min(c, len) of its values — from the end it leaves to the
// end it reaches — and a batch sorted by value moves every piece above its
// lowest value once, whatever the batch's size:
//
//   - deletes run bottom-up: a piece swaps its own deleted entries out to its
//     top, then slides down by the number of values removed below it;
//   - inserts run top-down: a piece slides up by the number of batch values
//     below its key, and the batch values that fall in it fill the gap that
//     opens at its top.
//
// The crack-tree walk that yields each piece's old start also rewrites the
// boundary there: its position by the slide, its prefix sum by the values
// that left or entered the array below it. So a batch of k rows costs a walk
// over the boundaries above its lowest value — one for its deletes, one for
// its inserts — and at most k moved values per piece, whether k is 1 or 512.
//
// A merge moves positions handed out earlier, so the owner runs it apart
// from every other call — see the Index comment.
//
// # Growth
//
// A merge that outgrows an array moves it to one sized for what it holds
// (GrowTo): the copy and the base live side by side in memory for the
// index's life, so append's 25 % would be a quarter of the column held for a
// few thousand rows.

// growFloor is the length below which GrowTo leaves growth to append: a
// small array fed single-row merges still doubles, so it moves O(log n)
// times.
const growFloor = 1 << 16

// Slack is the spare capacity an array of n elements gets when it moves:
// 1/64 of n.
func Slack(n int) int { return n / 64 }

// GrowTo returns s with length m, its elements below min(len(s), m) kept
// and any above len(s) left for the caller to write. An array of at least
// growFloor elements that must move gets room for m plus 1/64 of what it
// held, so it moves once per n/64 rows merged; a smaller one grows as
// append grows it. Every per-row array of a part grows here: the base and
// its tombstones (package shard), the copy, its row ids and a sorted
// index's prefix sums.
func GrowTo[S ~[]E, E any](s S, m int) S {
	n := len(s)
	switch {
	case m <= cap(s):
		return s[:m]
	case n < growFloor:
		return slices.Grow(s, m-n)[:m]
	}
	t := make(S, m, m+Slack(n))
	copy(t, s)
	return t
}

// Merge applies a batch to the cracked copy: ins and del, each sorted by
// value, deletes first (a batch never deletes a row it inserts). With row ids
// attached a delete removes the entry holding exactly its (value, row); on a
// values-only copy it removes one entry of its value, which is all count and
// sum depend on (the base's tombstone keeps the row's identity). Merge
// returns how many deletes found no such entry. A narrow copy is widened
// first (see "Narrow copies"), with room for the inserts. A sorted index
// stays sorted (mergeSorted). The owner keeps it apart from every other
// call.
func (ix *Index) Merge(ins, del []updates.Entry) (missing int) {
	ix.widen(ix.Len() + len(ins))
	if ix.sorted {
		return ix.mergeSorted(ins, del)
	}
	if len(del) > 0 {
		missing = ix.mergeDeletes(del)
	}
	if len(ins) > 0 {
		ix.mergeInserts(ins)
	}
	return missing
}

// removeEntry moves the first entry of [at, e) holding d — its value alone
// when rows is nil — out to e-1, the piece's top, and reports whether there
// was one.
func removeEntry(vals []int64, rows []uint32, at, e int, d updates.Entry) bool {
	if rows == nil {
		for ; at < e; at++ {
			if vals[at] == d.Val {
				vals[at] = vals[e-1]
				return true
			}
		}
		return false
	}
	for ; at < e; at++ {
		if vals[at] == d.Val && rows[at] == d.Row {
			vals[at], rows[at] = vals[e-1], rows[e-1]
			return true
		}
	}
	return false
}

func (ix *Index) mergeDeletes(del []updates.Entry) (missing int) {
	vals, rows := ix.vals, ix.rows
	from, _, _, _ := ix.tree.Locate(del[0].Val, len(vals))
	shift, i := 0, 0 // values removed so far, next delete
	var gone int64   // their sum
	// piece removes the deletes below hi (all of them at the top) from the
	// piece [from, end) and slides what is left down by shift.
	piece := func(end int, hi int64, top bool) {
		e := end
		for ; i < len(del) && (top || del[i].Val < hi); i++ {
			if !removeEntry(vals, rows, from, e, del[i]) {
				missing++
				continue
			}
			e--
			gone += del[i].Val
		}
		m := min(shift, e-from)
		copy(vals[from-shift:], vals[e-m:e])
		if rows != nil {
			copy(rows[from-shift:], rows[e-m:e])
		}
		shift += end - e
	}
	ix.tree.Rewrite(del[0].Val, false, func(key int64, pos int, sum int64) (int, int64) {
		piece(pos, key, false)
		from = pos
		return pos - shift, sum - gone
	})
	piece(len(vals), 0, true)
	ix.vals = vals[:len(vals)-shift]
	if rows != nil {
		ix.rows = rows[:len(rows)-shift]
	}
	return missing
}

func (ix *Index) mergeInserts(ins []updates.Entry) {
	n, k := len(ix.vals), len(ins)
	vals, rows := GrowTo(ix.vals, n+k), ix.rows
	if rows != nil {
		rows = GrowTo(rows, n+k)
	}
	ix.vals, ix.rows = vals, rows
	place := func(at int, es []updates.Entry) {
		for j, e := range es {
			vals[at+j] = e.Val
		}
		if rows != nil {
			for j, e := range es {
				rows[at+j] = e.Row
			}
		}
	}
	var below int64 // sum of ins[:k], the batch values not yet placed
	for _, e := range ins {
		below += e.Val
	}
	end := n // old end of the piece above the boundary being visited
	ix.tree.Rewrite(ins[0].Val, true, func(key int64, pos int, sum int64) (int, int64) {
		j := k
		for j > 0 && ins[j-1].Val >= key {
			j--
			below -= ins[j].Val
		}
		// The piece [pos, end) slides up by j and takes ins[j:k] on top.
		m := min(j, end-pos)
		copy(vals[end+j-m:], vals[pos:pos+m])
		if rows != nil {
			copy(rows[end+j-m:], rows[pos:pos+m])
		}
		place(end+j, ins[j:k])
		k, end = j, pos
		return pos + j, sum + below
	})
	place(end, ins[:k])
}
