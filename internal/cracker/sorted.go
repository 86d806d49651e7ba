package cracker

import (
	"cmp"
	"slices"

	"holistic/internal/cracktree"
	"holistic/internal/updates"
)

// Sort sorts the copy in place — with its row ids, once attached — a full
// index (see "The sorted state"): the crack tree goes and prefix sums answer
// every aggregate. The comparison sort costs O(n log n), the paper's
// Time_sort profile. Sorting a sorted index does nothing.
func (ix *Index) Sort() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.tmu.lock()
	defer ix.tmu.Unlock()
	if ix.sorted {
		return
	}
	if ix.rows == nil {
		slices.Sort(ix.vals)
	} else {
		comparisonSortPairs(ix.vals, ix.rows)
	}
	ix.tree = cracktree.Tree{}
	ix.setSorted()
}

// setSorted marks an ascending copy sorted and derives its prefix sums. The
// caller holds the structure latch exclusively (or owns the index outright).
func (ix *Index) setSorted() {
	ix.sorted, ix.pre = true, make([]int64, 1, len(ix.vals)+1)
	ix.sumsFrom(0)
}

// sumsFrom recomputes the prefix sums above position from.
func (ix *Index) sumsFrom(from int) {
	n := len(ix.vals)
	ix.pre = GrowTo(ix.pre, n+1)
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
// delete's (value, row) — or, values-only, one entry of its value per
// delete; inserts are one backward merge into the grown arrays; the prefix
// sums are recomputed from the first position either changed. The caller
// holds the structure latch exclusively.
func (ix *Index) mergeSorted(ins, del []updates.Entry) (missing int) {
	n := len(ix.vals)
	from := n
	if len(del) > 0 {
		from, _, _, _ = ix.locate(del[0].Val)
		var w int
		if ix.rows == nil {
			w = filterVals(ix.vals[:n], from, del)
		} else {
			w = filterPairs(ix.vals[:n], ix.rows[:n], from, del)
		}
		missing = len(del) - (n - w)
		n = w
	}
	if len(ins) > 0 {
		k := len(ins)
		ix.vals = GrowTo(ix.vals[:n], n+k)
		var low int // the lowest position the inserts moved
		if ix.rows == nil {
			low = mergeBackVals(ix.vals, n, ins)
		} else {
			ix.rows = GrowTo(ix.rows[:n], n+k)
			low = mergeBackPairs(ix.vals, ix.rows, n, ins)
		}
		from = min(from, low)
		n += k
	}
	ix.vals = ix.vals[:n]
	if ix.rows != nil {
		ix.rows = ix.rows[:n]
	}
	ix.sumsFrom(from)
	return missing
}

// filterPairs drops from vals[from:] (rows in lockstep) each entry holding
// exactly a delete's (value, row) and returns the length left.
func filterPairs(vals []int64, rows []uint32, from int, del []updates.Entry) int {
	n, w, d := len(vals), from, 0
	for r := from; r < n; r++ {
		v, row := vals[r], rows[r]
		for d < len(del) && del[d].Val < v {
			d++
		}
		if d == len(del) { // no delete reaches this far: the rest slides
			copy(rows[w:], rows[r:n])
			return w + copy(vals[w:], vals[r:n])
		}
		drop := false
		for e := d; e < len(del) && del[e].Val == v && !drop; e++ {
			drop = del[e].Row == row
		}
		if !drop {
			vals[w], rows[w] = v, row
			w++
		}
	}
	return w
}

// filterVals drops from the ascending vals[from:] one entry of its value per
// delete and returns the length left.
func filterVals(vals []int64, from int, del []updates.Entry) int {
	n, w, d := len(vals), from, 0
	for r := from; r < n; r++ {
		v := vals[r]
		for d < len(del) && del[d].Val < v {
			d++
		}
		if d == len(del) {
			return w + copy(vals[w:], vals[r:n])
		}
		if del[d].Val == v { // this entry answers delete d
			d++
			continue
		}
		vals[w] = v
		w++
	}
	return w
}

// mergeBackPairs merges ins, sorted by value, into the ascending
// vals[:n] (rows in lockstep) from the back, both grown to n+len(ins), and
// returns the lowest position whose entry moved.
func mergeBackPairs(vals []int64, rows []uint32, n int, ins []updates.Entry) int {
	i, w, k := n-1, n+len(ins)-1, len(ins)
	for k > 0 {
		if i >= 0 && vals[i] > ins[k-1].Val {
			vals[w], rows[w] = vals[i], rows[i]
			i--
		} else {
			k--
			vals[w], rows[w] = ins[k].Val, ins[k].Row
		}
		w--
	}
	return i + 1
}

// mergeBackVals is mergeBackPairs for a values-only copy.
func mergeBackVals(vals []int64, n int, ins []updates.Entry) int {
	i, w, k := n-1, n+len(ins)-1, len(ins)
	for k > 0 {
		if i >= 0 && vals[i] > ins[k-1].Val {
			vals[w] = vals[i]
			i--
		} else {
			k--
			vals[w] = ins[k].Val
		}
		w--
	}
	return i + 1
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
// values is unspecified. Only an index with row ids attached sorts pairs; a
// values-only copy takes slices.Sort.
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
