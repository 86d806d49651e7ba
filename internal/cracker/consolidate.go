package cracker

// Consolidation: long query sequences and random refinements can accumulate
// degenerate boundaries — zero-width pieces (two boundaries at the same
// position) and neighbouring micro-pieces far below the cache-resident
// target. They cost tree depth and piece-catalog work without buying any
// partitioning information. Consolidate prunes them, which is the cracker-
// index analogue of index defragmentation in a classic B-tree store.

// Consolidate removes redundant crack boundaries:
//
//   - every zero-width piece (a boundary whose position equals the next
//     boundary's position) is merged away, keeping the boundary with the
//     larger key so piece value bounds stay correct;
//   - optionally, adjacent pieces are merged while the combined size stays
//     at or below minPiece (<= 0 disables size-based merging).
//
// It returns the number of boundaries removed. Query results are unaffected:
// only the granularity of known partitioning information changes, never its
// correctness. Removing a boundary invalidates positions looked up for it,
// so the owner excludes every other user of the index around the call.
func (ix *Index) Consolidate(minPiece int) int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.tree.Len() == 0 {
		return 0
	}
	type bnd struct {
		key int64
		pos int
	}
	var bounds []bnd
	ix.tree.Walk(func(key int64, pos int, _ int64) bool {
		bounds = append(bounds, bnd{key, pos})
		return true
	})

	removed := 0
	// Pass 1: drop zero-width pieces. Two boundaries at one position mean
	// the piece between them is empty; the *smaller* key is redundant
	// because the larger key's bound subsumes it for every value in the
	// array. (All values < pos are < smallKey <= largeKey; all values >=
	// pos are >= largeKey.)
	keep := bounds[:0]
	for i := 0; i < len(bounds); i++ {
		if i+1 < len(bounds) && bounds[i+1].pos == bounds[i].pos {
			ix.tree.Remove(bounds[i].key)
			removed++
			continue
		}
		keep = append(keep, bounds[i])
	}
	bounds = keep

	// Pass 2: merge runs of micro-pieces. Dropping an interior boundary
	// merges its two neighbouring pieces; keep dropping while the merged
	// piece stays within minPiece.
	if minPiece > 0 {
		segStart := 0 // position where the current merged piece begins
		for i := 0; i < len(bounds); i++ {
			end := len(ix.vals)
			if i+1 < len(bounds) {
				end = bounds[i+1].pos
			}
			// bounds[i] separates [segStart, bounds[i].pos) from
			// [bounds[i].pos, end). Merging them yields [segStart, end).
			if end-segStart <= minPiece {
				ix.tree.Remove(bounds[i].key)
				removed++
				continue // segStart unchanged: the merged piece keeps growing
			}
			segStart = bounds[i].pos
		}
	}
	return removed
}
