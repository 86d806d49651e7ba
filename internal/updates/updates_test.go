package updates_test

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"holistic/internal/cracker"
	"holistic/internal/updates"
)

func newIndex(vals []int64) *cracker.Index {
	v := make([]int64, len(vals))
	copy(v, vals)
	rows := make([]uint32, len(vals))
	for i := range rows {
		rows[i] = uint32(i)
	}
	return cracker.New(v, rows)
}

// drain drains everything mergeable above the first next rows and sorts it
// for the indexes, as a part's merge step does.
func drain(q *updates.Queue, next uint32, max int) (ins, del []updates.Entry) {
	ins, del = q.Drain(next, 1, max, updates.AllRows)
	updates.SortByVal(ins)
	updates.SortByVal(del)
	return ins, del
}

func TestInsertThenQuery(t *testing.T) {
	ix := newIndex([]int64{10, 30, 50})
	var q updates.Queue
	q.Insert(20, 3)
	q.Insert(70, 4)
	if n, s := q.CountSum(15, 35, updates.AllRows); n != 1 || s != 20 {
		t.Fatalf("buffered [15, 35): %d/%d, want 1/20", n, s)
	}
	ix.Merge(drain(&q, 3, 0))
	from, to := ix.CrackRange(15, 35)
	if cnt, _ := ix.CountSum(from, to); cnt != 2 { // 20 and 30
		t.Fatalf("count %d", cnt)
	}
	if ins, del := q.Counts(); ins != 0 || del != 0 || ix.Len() != 5 {
		t.Fatalf("buffer state %d/%d, index length %d", ins, del, ix.Len())
	}
}

// TestDeleteAnnihilatesPendingInsert: deleting a still-buffered insert pairs
// a delete with it, so the two net to zero in every read; deleting another
// row of the same value leaves the insert live.
func TestDeleteAnnihilatesPendingInsert(t *testing.T) {
	var q updates.Queue
	q.Insert(5, 1)
	if v, ok := q.AnnihilateRow(1); !ok || v != 5 {
		t.Fatalf("AnnihilateRow(1) = %d,%v", v, ok)
	}
	if n, s := q.CountSum(0, 10, updates.AllRows); n != 0 || s != 0 {
		t.Fatalf("insert+delete read %d/%d, want 0/0", n, s)
	}
	q.Insert(5, 2)
	if _, ok := q.AnnihilateRow(3); ok {
		t.Fatal("annihilated row 3, which was never buffered")
	}
	if row, ok := q.MinInsertRowFor(5, updates.AllRows); !ok || row != 2 {
		t.Fatalf("live buffered row for 5 = %d,%v, want 2", row, ok)
	}
}

// TestDeleteAnnihilationAfterMerge pins the reindex after drain compaction:
// a partial drain moves the surviving inserts to new positions, and a later
// delete of a survivor must still find and annihilate it.
func TestDeleteAnnihilationAfterMerge(t *testing.T) {
	var q updates.Queue
	q.Insert(5, 10)
	q.Insert(25, 11)
	q.Insert(95, 12)
	if ins, _ := q.Drain(10, 1, 1, updates.AllRows); len(ins) != 1 { // merges (5,10); survivors compact
		t.Fatalf("budget-1 drain took %v", ins)
	}
	if v, ok := q.AnnihilateRow(12); !ok || v != 95 {
		t.Fatalf("AnnihilateRow(12) = %d,%v after compaction", v, ok)
	}
	if v, ok := q.AnnihilateRow(11); !ok || v != 25 {
		t.Fatalf("AnnihilateRow(11) = %d,%v after compaction", v, ok)
	}
	if n, s := q.CountSum(0, 100, updates.AllRows); n != 0 || s != 0 {
		t.Fatalf("annihilated pairs read %d/%d, want 0/0 (stale index after drain?)", n, s)
	}
}

func TestDeleteMergesAgainstIndex(t *testing.T) {
	ix := newIndex([]int64{10, 20, 30})
	var q updates.Queue
	q.Delete(20, 1)
	if missing := ix.Merge(drain(&q, 3, 0)); missing != 0 {
		t.Fatalf("the drained delete missed row 1")
	}
	from, to := ix.CrackRange(0, 100)
	if cnt, _ := ix.CountSum(from, to); cnt != 2 {
		t.Fatalf("count %d after delete", cnt)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPendingMatchesReference interleaves buffered updates, drains
// merged into a cracker and a sorted index, and queries; each index plus the
// buffer's net contribution must always answer like a reference multiset that
// applies updates immediately.
func TestPropertyPendingMatchesReference(t *testing.T) {
	f := func(seed uint64, opsRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		domain := int64(150)
		base := make([]int64, 80)
		for i := range base {
			base[i] = rng.Int64N(domain)
		}
		ix := newIndex(base)
		sx := newIndex(base)
		sx.Sort()
		var q updates.Queue
		ref := map[uint32]int64{} // live row -> value
		for i, v := range base {
			ref[uint32(i)] = v
		}
		next, merged := uint32(len(base)), uint32(len(base)) // rows assigned, rows merged
		merge := func(max int) int {
			ins, del := drain(&q, merged, max)
			merged += uint32(len(ins))
			if ix.Merge(ins, del) != 0 || sx.Merge(ins, del) != 0 {
				return -1
			}
			return len(ins) + len(del)
		}

		ops := int(opsRaw%100) + 20
		for i := 0; i < ops; i++ {
			switch rng.IntN(4) {
			case 0: // insert
				v := rng.Int64N(domain)
				q.Insert(v, next)
				ref[next] = v
				next++
			case 1: // delete a random live row, buffered or merged
				if len(ref) == 0 {
					continue
				}
				row := uint32(rng.IntN(int(next)))
				for _, ok := ref[row]; !ok; _, ok = ref[row] {
					row = (row + 1) % next
				}
				if row >= merged {
					q.AnnihilateRow(row)
				} else {
					q.Delete(ref[row], row)
				}
				delete(ref, row)
			case 2: // query
				lo := rng.Int64N(domain)
				hi := lo + rng.Int64N(domain/3+1)
				wc, ws := 0, int64(0)
				for _, v := range ref {
					if v >= lo && v < hi {
						wc, ws = wc+1, ws+v
					}
				}
				pc, ps := q.CountSum(lo, hi, updates.AllRows)
				from, to := ix.CrackRange(lo, hi)
				cc, cs := ix.CountSum(from, to)
				sc, ss, _, _ := sx.LookupCountSum(lo, hi)
				if cc+pc != wc || cs+ps != ws || sc+pc != wc || ss+ps != ws {
					return false
				}
			case 3: // a merge step
				if merge(rng.IntN(16)+1) < 0 {
					return false
				}
			}
		}
		for n := merge(0); n != 0; n = merge(0) { // a dead pair drains over two steps
			if n < 0 {
				return false
			}
		}
		return ix.Validate() == nil && sx.Validate() == nil && ix.Len() == len(ref) && sx.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
