// Package sortindex implements the offline (full) index: a completely sorted
// copy of a column plus the base row ids, answering range selects with two
// binary searches and — the reply being (count, sum) — one subtraction of
// prefix sums, the same aggregate shortcut the cracker's boundaries carry, so
// the paper's offline/online baselines are not charged for a scan the
// adaptive strategies skip. Building it costs a full comparison sort,
// O(n log n) — the cost profile of the paper's MonetDB build, Time_sort =
// 28.4 s for 10^8 values on the authors' hardware — which is exactly the
// investment offline indexing must make up front and holistic indexing
// chooses to spread over many partial indexes instead.
package sortindex

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"holistic/internal/updates"
)

// Index is a fully sorted index over one column.
type Index struct {
	vals []int64  // ascending
	rows []uint32 // base row ids aligned with vals
	pre  []int64  // pre[i] is the wrapping sum of vals[:i]; len(vals)+1 entries
}

// newIndex adopts sorted vals and rows and builds the prefix sums.
func newIndex(vals []int64, rows []uint32) *Index {
	pre := make([]int64, len(vals)+1)
	for i, v := range vals {
		pre[i+1] = pre[i] + v
	}
	return &Index{vals: vals, rows: rows, pre: pre}
}

// Build sorts vals (adopting the slice) together with rows and returns the
// index. The sort is a comparison sort, O(n log n): the paper's Time_sort
// profile.
func Build(vals []int64, rows []uint32) *Index {
	comparisonSortPairs(vals, rows)
	return newIndex(vals, rows)
}

// FromSorted adopts already-sorted slices — the restore path for a snapshot
// that persisted a built index, skipping the full re-sort a cold build pays.
// It verifies ascending order (O(n), the price of not trusting the disk) and
// rejects unsorted input rather than serving wrong binary-search answers.
func FromSorted(vals []int64, rows []uint32) (*Index, error) {
	if len(vals) != len(rows) {
		return nil, fmt.Errorf("sortindex: vals/rows length mismatch %d != %d", len(vals), len(rows))
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1] {
			return nil, fmt.Errorf("sortindex: restore input not sorted at %d", i)
		}
	}
	return newIndex(vals, rows), nil
}

// Len returns the number of indexed values.
func (ix *Index) Len() int { return len(ix.vals) }

// Values exposes the sorted values. Callers must treat them as read-only.
func (ix *Index) Values() []int64 { return ix.vals }

// Rows exposes the base row ids aligned with Values.
func (ix *Index) Rows() []uint32 { return ix.rows }

// Range returns the region [from, to) holding exactly the values in [lo, hi).
func (ix *Index) Range(lo, hi int64) (from, to int) {
	if lo >= hi {
		return 0, 0
	}
	return ix.lowerBound(lo), ix.lowerBound(hi)
}

// MinRowOf returns the lowest base row id among the entries holding exactly
// value v for which live reports true: one binary search plus the run of
// duplicates of v, whose row order is unspecified.
func (ix *Index) MinRowOf(v int64, live func(row uint32) bool) (row uint32, ok bool) {
	for at := ix.lowerBound(v); at < len(ix.vals) && ix.vals[at] == v; at++ {
		if r := ix.rows[at]; (!ok || r < row) && live(r) {
			row, ok = r, true
		}
	}
	return row, ok
}

// CountSum aggregates the region [from, to): tuple count and value sum, a
// subtraction of two prefix sums. Positions are clamped to the index; an
// empty or inverted region yields (0, 0).
func (ix *Index) CountSum(from, to int) (int, int64) {
	from, to = max(from, 0), min(to, len(ix.vals))
	if from >= to {
		return 0, 0
	}
	return to - from, ix.pre[to] - ix.pre[from]
}

// Merge applies a batch: ins and del, each sorted by value, deletes first (a
// batch never deletes a row it inserts). Deletes are one filter pass from the
// lowest one's position, dropping each entry that holds exactly a delete's
// (value, row); inserts are one backward merge into the grown arrays; the
// prefix sums are recomputed from the first position either changed. Merge
// returns how many deletes found no such entry.
func (ix *Index) Merge(ins, del []updates.Entry) (missing int) {
	n := len(ix.vals)
	from := n
	if len(del) > 0 {
		from = ix.lowerBound(del[0].Val)
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
	ix.pre = slices.Grow(ix.pre[:from+1], n-from)[:n+1]
	for i := from; i < n; i++ {
		ix.pre[i+1] = ix.pre[i] + ix.vals[i]
	}
	return missing
}

// lowerBound returns the first position holding a value >= v.
func (ix *Index) lowerBound(v int64) int {
	return sort.Search(len(ix.vals), func(i int) bool { return ix.vals[i] >= v })
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
// values is unspecified, as before (sort.Slice was not stable either).
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
