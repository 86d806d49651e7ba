package cracker

import (
	"fmt"

	"holistic/internal/scan"
)

// Boundary is one crack-tree entry in serializable form: the first position
// in the cracked copy holding a value >= Key. The ordered boundary list plus
// the cracked copy arrays are the index's complete physical state — what a
// snapshot persists so a restart resumes with every paid-for refinement.
type Boundary struct {
	Key int64
	Pos int
}

// Boundaries returns the crack-tree entries in ascending key order.
func (ix *Index) Boundaries() []Boundary {
	ix.tmu.rlock()
	defer ix.tmu.RUnlock()
	bs := make([]Boundary, 0, ix.tree.Len())
	ix.tree.Walk(func(key int64, pos int, _ int64) bool {
		bs = append(bs, Boundary{Key: key, Pos: pos})
		return true
	})
	return bs
}

// RestoreIndex rebuilds a values-only cracker index from a snapshot: the
// cracked copy (adopted, not copied, unless its values span less than 2^32
// and it was not sorted: then it is stored narrow, see "Narrow copies";
// AttachRows gives it row ids, as after a load), its boundary list in
// ascending key order and whether it was sorted. It re-validates the
// structural invariants the tree cannot express — monotone positions and
// per-piece value bounds, or an ascending copy — so a corrupted snapshot
// is rejected here rather than silently producing wrong query results. Boundary and prefix sums are not part of
// a snapshot: they are re-derived from vals here.
func RestoreIndex(vals []int64, bs []Boundary, sorted bool) (*Index, error) {
	ix := New(vals, nil)
	if sorted { // Validate rejects boundaries and an unsorted copy
		ix.setSorted()
	} else if lo, hi, ok := scan.MinMax(vals); ok && narrowFits(lo, hi) {
		ix.vals, ix.off, ix.ref = nil, liveCopy[uint32](vals, nil, len(vals), lo), lo
	}
	prevPos := 0
	prevKey := int64(0)
	var below int64 // sum of vals[:prevPos]
	for i, b := range bs {
		if i > 0 && b.Key <= prevKey {
			return nil, fmt.Errorf("cracker: restore boundary keys not ascending at %d", i)
		}
		if b.Pos < prevPos || b.Pos > ix.Len() {
			return nil, fmt.Errorf("cracker: restore boundary %d position %d out of order", b.Key, b.Pos)
		}
		below += ix.sumRange(prevPos, b.Pos)
		ix.tree.Insert(b.Key, b.Pos, below)
		prevPos, prevKey = b.Pos, b.Key
	}
	ix.cracks.Store(int64(len(bs)))
	if err := ix.Validate(); err != nil {
		return nil, err
	}
	return ix, nil
}
