package cracker

import (
	"cmp"
	"slices"

	"holistic/internal/cracktree"
	"holistic/internal/updates"
)

// Sort sorts the copy and its row ids in place, a full index (see "The
// sorted state"): the crack tree goes and prefix sums answer every
// aggregate. The comparison sort costs O(n log n), the paper's Time_sort
// profile. Sorting a sorted index does nothing.
func (ix *Index) Sort() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.sorted {
		return
	}
	comparisonSortPairs(ix.vals, ix.rows)
	ix.tree = cracktree.Tree{}
	ix.setSorted()
}

// setSorted marks an ascending copy sorted and derives its prefix sums. The
// caller holds the exclusive latch (or owns the index outright).
func (ix *Index) setSorted() {
	ix.sorted, ix.pre = true, make([]int64, 1, len(ix.vals)+1)
	ix.sumsFrom(0)
}

// sumsFrom recomputes the prefix sums above position from.
func (ix *Index) sumsFrom(from int) {
	n := len(ix.vals)
	ix.pre = slices.Grow(ix.pre[:from+1], n-from)[:n+1]
	for i := from; i < n; i++ {
		ix.pre[i+1] = ix.pre[i] + ix.vals[i]
	}
}

// Sorted reports whether the index is a full, sorted one.
func (ix *Index) Sorted() bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.sorted
}

// mergeSorted is Merge on a sorted index. Deletes are one filter pass from
// the lowest one's position, dropping each entry that holds exactly a
// delete's (value, row); inserts are one backward merge into the grown
// arrays; the prefix sums are recomputed from the first position either
// changed. The caller holds the exclusive latch.
func (ix *Index) mergeSorted(ins, del []updates.Entry) (missing int) {
	n := len(ix.vals)
	from := n
	if len(del) > 0 {
		from, _, _, _ = ix.locate(del[0].Val)
		w, d := from, 0
		for r := from; r < n; r++ {
			v, row := ix.vals[r], ix.rows[r]
			for d < len(del) && del[d].Val < v {
				d++
			}
			if d == len(del) { // no delete reaches this far: the rest slides
				copy(ix.rows[w:], ix.rows[r:n])
				w += copy(ix.vals[w:], ix.vals[r:n])
				break
			}
			drop := false
			for e := d; e < len(del) && del[e].Val == v && !drop; e++ {
				drop = del[e].Row == row
			}
			if !drop {
				ix.vals[w], ix.rows[w] = v, row
				w++
			}
		}
		missing = len(del) - (n - w)
		n = w
	}
	if len(ins) > 0 {
		k := len(ins)
		ix.vals = slices.Grow(ix.vals[:n], k)[:n+k]
		ix.rows = slices.Grow(ix.rows[:n], k)[:n+k]
		i, w := n-1, n+k-1
		for k > 0 {
			if i >= 0 && ix.vals[i] > ins[k-1].Val {
				ix.vals[w], ix.rows[w] = ix.vals[i], ix.rows[i]
				i--
			} else {
				k--
				ix.vals[w], ix.rows[w] = ins[k].Val, ins[k].Row
			}
			w--
		}
		from = min(from, i+1)
		n += len(ins)
	}
	ix.vals, ix.rows = ix.vals[:n], ix.rows[:n]
	ix.sumsFrom(from)
	return missing
}

// pair is one (value, row id) element of the sort; sorting concrete pairs
// lets slices.SortFunc (pdqsort, no interface indirection) move both halves
// together instead of permuting an index slice through a closure.
type pair struct {
	v int64
	r uint32
}

// comparisonSortPairs sorts vals ascending with rows in lockstep using the
// slices pdqsort over concrete pairs. The order of rows among duplicate
// values is unspecified.
func comparisonSortPairs(vals []int64, rows []uint32) {
	ps := make([]pair, len(vals))
	for i := range ps {
		ps[i] = pair{v: vals[i], r: rows[i]}
	}
	slices.SortFunc(ps, func(a, b pair) int { return cmp.Compare(a.v, b.v) })
	for i, p := range ps {
		vals[i] = p.v
		rows[i] = p.r
	}
}
