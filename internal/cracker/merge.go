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
// A merge moves positions handed out earlier, so it runs under the exclusive
// latch — see the Index comment.

// Merge applies a batch to the cracked copy: ins and del, each sorted by
// value, deletes first (a batch never deletes a row it inserts). A delete
// removes the entry holding exactly its (value, row); Merge returns how many
// deletes found no such entry.
func (ix *Index) Merge(ins, del []updates.Entry) (missing int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(del) > 0 {
		missing = ix.mergeDeletes(del)
	}
	if len(ins) > 0 {
		ix.mergeInserts(ins)
	}
	return missing
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
			at := from
			for at < e && (vals[at] != del[i].Val || rows[at] != del[i].Row) {
				at++
			}
			if at == e {
				missing++
				continue
			}
			e--
			vals[at], rows[at] = vals[e], rows[e]
			gone += del[i].Val
		}
		m := min(shift, e-from)
		copy(vals[from-shift:], vals[e-m:e])
		copy(rows[from-shift:], rows[e-m:e])
		shift += end - e
	}
	ix.tree.Rewrite(del[0].Val, false, func(key int64, pos int, sum int64) (int, int64) {
		piece(pos, key, false)
		from = pos
		return pos - shift, sum - gone
	})
	piece(len(vals), 0, true)
	ix.vals, ix.rows = vals[:len(vals)-shift], rows[:len(rows)-shift]
	return missing
}

func (ix *Index) mergeInserts(ins []updates.Entry) {
	n, k := len(ix.vals), len(ins)
	if n == 0 {
		// Nothing left to bound the domain; boundaries that outlived the last
		// delete still slide below.
		ix.domLo, ix.domHi = ins[0].Val, ins[k-1].Val
	}
	ix.domLo, ix.domHi = min(ix.domLo, ins[0].Val), max(ix.domHi, ins[k-1].Val)
	vals, rows := slices.Grow(ix.vals, k)[:n+k], slices.Grow(ix.rows, k)[:n+k]
	ix.vals, ix.rows = vals, rows
	place := func(at int, es []updates.Entry) {
		for j, e := range es {
			vals[at+j], rows[at+j] = e.Val, e.Row
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
		copy(rows[end+j-m:], rows[pos:pos+m])
		place(end+j, ins[j:k])
		k, end = j, pos
		return pos + j, sum + below
	})
	place(end, ins[:k])
}
