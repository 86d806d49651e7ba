package updates

import (
	"slices"
	"testing"
)

// checkQueue asserts the queue's invariants, given how many rows have merged
// (stride 1, so a row id is its local position). Every buffered insert lies
// above every merged row, which a shard relies on to resolve and delete a
// row without reading the buffer. And dels holds exactly del's entries. An
// entry missing from it resurrects a pending-deleted row in reads and lets
// the same delete be buffered twice; an entry left behind by a drain hides a
// row that no longer exists and keeps the set growing.
func checkQueue(t *testing.T, q *Queue, merged int) {
	t.Helper()
	for _, e := range q.ins {
		if int(e.Row) < merged {
			t.Fatalf("buffered insert %v lies below merged row %d", e, merged-1)
		}
	}
	if len(q.dels) != len(q.del) {
		t.Fatalf("dels has %d entries for %d deletes", len(q.dels), len(q.del))
	}
	for _, e := range q.del {
		if _, ok := q.dels[e]; !ok {
			t.Fatalf("delete %v missing from dels", e)
		}
	}
}

// buffered reports whether the queue holds an insert for row.
func buffered(q *Queue, row uint32) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return slices.ContainsFunc(q.ins, func(e Entry) bool { return e.Row == row })
}

// FuzzPendingMergeDelete drives random interleavings of Insert, Delete,
// AnnihilateRow and Drain (the concurrent write path's primitives) against
// a map-based oracle that applies every update immediately. After every
// operation the queue's invariants must hold (checkQueue), annihilation
// semantics must be exact (deleting a still-buffered insert pairs a delete
// with it — the pair nets to zero and drains as materialise-then-tombstone,
// keeping row order dense), and the combined view — dense merged storage
// plus the buffer's net CountSum — must equal the oracle on every probed
// range.
//
// Row-id gaps are part of the model: a fraction of row ids are "stalled"
// (assigned but not yet enqueued, like a writer between row reservation and
// queue append), so Drain must stop at the gap and resume once the stalled
// insert lands.
func FuzzPendingMergeDelete(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{10, 200, 30, 41, 52, 63, 74, 85, 96, 107, 118, 129, 140})
	f.Add([]byte{255, 254, 253, 0, 0, 0, 1, 1, 1, 2, 2, 2, 128, 64, 32})
	// Two rows merge; a merged row is deleted and a buffered one annihilated;
	// two drains release both deletes.
	f.Add([]byte{0, 5, 0, 6, 4, 15, 3, 0, 0, 7, 3, 2, 4, 15, 4, 15})
	// A stalled row splits the buffer: the drain releases only the row below
	// it, and the two above stay buffered, above the merged row, until the
	// stalled one lands and a second drain takes all three.
	f.Add([]byte{0, 5, 1, 6, 0, 7, 0, 8, 4, 15, 2, 0, 4, 15, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var q Queue

		// Merged state: dense storage with stride 1 (row == local index)
		// plus tombstones — the shape shard.Part maintains.
		var col []int64
		dead := map[uint32]bool{}

		// Oracle: row -> value for every live row, updated immediately.
		ref := map[uint32]int64{}

		nextRow := uint32(0)
		var stalled []Entry // row ids reserved but not yet enqueued

		countSumMerged := func(lo, hi int64) (int, int64) {
			c, s := 0, int64(0)
			for r, v := range col {
				if !dead[uint32(r)] && v >= lo && v < hi {
					c++
					s += v
				}
			}
			return c, s
		}
		countSumRef := func(lo, hi int64) (int, int64) {
			c, s := 0, int64(0)
			for _, v := range ref {
				if v >= lo && v < hi {
					c++
					s += v
				}
			}
			return c, s
		}
		check := func(lo, hi int64) {
			mc, ms := countSumMerged(lo, hi)
			pc, ps := q.CountSum(lo, hi, AllRows)
			wc, ws := countSumRef(lo, hi)
			if mc+pc != wc || ms+ps != ws {
				t.Fatalf("range [%d,%d): merged %d/%d + pending %d/%d != oracle %d/%d",
					lo, hi, mc, ms, pc, ps, wc, ws)
			}
		}

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], int64(data[i+1])
			switch op % 6 {
			case 0: // insert
				v := arg % 64
				q.Insert(v, nextRow)
				ref[nextRow] = v
				nextRow++
			case 1: // stalled insert: reserve the row id, enqueue later. The
				// writer has not returned yet, so the oracle must not count
				// it until it lands — exactly as a reader cannot see it.
				v := arg % 64
				stalled = append(stalled, Entry{v, nextRow})
				nextRow++
			case 2: // land the oldest stalled insert
				if len(stalled) > 0 {
					e := stalled[0]
					stalled = stalled[1:]
					q.Insert(e.Val, e.Row)
					ref[e.Row] = e.Val
				}
			case 3: // delete a live row (buffered or merged)
				if len(ref) == 0 {
					continue
				}
				// Deterministic pick: lowest live row >= arg mod nextRow,
				// wrapping to the lowest live row.
				want := uint32(arg) % (nextRow + 1)
				pick, found := uint32(0), false
				for r := range ref {
					if r >= want && (!found || r < pick) {
						pick, found = r, true
					}
				}
				if !found {
					for r := range ref {
						if !found || r < pick {
							pick, found = r, true
						}
					}
				}
				v := ref[pick]
				insBefore, delBefore := q.Counts()
				if buffered(&q, pick) {
					// Still buffered: kill it the way shard.deleteLocal does.
					av, aok := q.AnnihilateRow(pick)
					if !aok || av != v {
						t.Fatalf("AnnihilateRow(%d) = %d,%v want %d,true", pick, av, aok, v)
					}
					insAfter, delAfter := q.Counts()
					if insAfter != insBefore || delAfter != delBefore+1 {
						// Pairing: the insert stays, one delete joins it.
						t.Fatalf("annihilation of (%d,%d): counts %d/%d -> %d/%d",
							v, pick, insBefore, delBefore, insAfter, delAfter)
					}
				} else {
					if !q.Delete(v, pick) {
						t.Fatalf("delete of live row %d (val %d) reported no effect", pick, v)
					}
					if _, delAfter := q.Counts(); delAfter != delBefore+1 {
						t.Fatalf("buffered delete of (%d,%d): del count %d -> %d",
							v, pick, delBefore, delAfter)
					}
				}
				delete(ref, pick)
			case 4: // drain a budget of operations into the merged state
				budget := int(arg%16) + 1
				preLen := len(col)
				ins, del := q.Drain(uint32(len(col)), 1, budget, AllRows)
				if len(ins)+len(del) > budget {
					t.Fatalf("Drain(%d) returned %d ops", budget, len(ins)+len(del))
				}
				for _, e := range ins {
					if int(e.Row) != len(col) {
						t.Fatalf("drain broke contiguity: row %d at col len %d", e.Row, len(col))
					}
					col = append(col, e.Val)
				}
				for _, e := range del {
					if int(e.Row) >= preLen {
						t.Fatalf("drained delete for unmerged row %d (merged %d)", e.Row, preLen)
					}
					if dead[e.Row] {
						t.Fatalf("drained delete for already-dead row %d", e.Row)
					}
					if col[e.Row] != e.Val {
						t.Fatalf("drained delete value mismatch at row %d: %d != %d",
							e.Row, col[e.Row], e.Val)
					}
					dead[e.Row] = true
				}
			case 5: // probe a range
				lo := arg % 64
				check(lo, lo+1+arg%32)
			}
			checkQueue(t, &q, len(col))
		}

		// Land every stalled insert, drain to empty, final full check. A
		// dead pair drains over two steps (materialise, then tombstone), so
		// the drain loops until it stops making progress — exactly what
		// shard.Column.MergePending does.
		for _, e := range stalled {
			q.Insert(e.Val, e.Row)
			ref[e.Row] = e.Val
		}
		checkQueue(t, &q, len(col))
		for {
			ins, del := q.Drain(uint32(len(col)), 1, 0, AllRows)
			if len(ins)+len(del) == 0 {
				break
			}
			for _, e := range ins {
				if int(e.Row) != len(col) {
					t.Fatalf("final drain broke contiguity: row %d at col len %d", e.Row, len(col))
				}
				col = append(col, e.Val)
			}
			for _, e := range del {
				dead[e.Row] = true
			}
		}
		if i, d := q.Counts(); i+d != 0 {
			t.Fatalf("buffer not empty after full drain: %d/%d", i, d)
		}
		checkQueue(t, &q, len(col))
		check(0, 64)
	})
}
