// Package sortindex keeps the three names the benchmark rig calls for the
// offline (full) index, over a cracker index sorted to completion
// (cracker.Index.Sort), which the engine holds directly.
package sortindex

import "holistic/internal/cracker"

// Index is a fully sorted index over one column.
type Index struct{ ix *cracker.Index }

// Build sorts vals and rows (adopting both) into a full index.
func Build(vals []int64, rows []uint32) *Index {
	ix := cracker.New(vals, rows)
	ix.Sort()
	return &Index{ix}
}

// Range returns the region [from, to) holding exactly the values in [lo, hi).
func (s *Index) Range(lo, hi int64) (from, to int) {
	from, to, _ = s.ix.LookupRange(lo, hi)
	return from, to
}

// CountSum aggregates the clamped region [from, to): count and value sum.
func (s *Index) CountSum(from, to int) (int, int64) { return s.ix.CountSum(from, to) }
