// Package updates implements update support for cracked columns following
// the "merge gradually" design of Updating a Cracked Database (Idreos,
// Kersten, Manegold, SIGMOD 2007). Inserts and deletes land in per-shard
// ingest queues; a merge step drains a batch and the part's index merges it
// in one pass (cracker.Index.Merge, cracked or sorted), so
// update cost is deferred and paid during idle time (or amortised over
// batches) instead of inside the writer's critical path.
//
// Queue is the one buffer type: each shard's inserts and deletes behind a
// leaf mutex, so writers never touch the shard's RW latch. It offers the
// read primitive (the buffer's net CountSum, which a shard read adds to its
// index result under the shard's shared latch) and the row-contiguous Drain
// the merge step consumes.
package updates

import (
	"cmp"
	"slices"
	"sync"
)

// Entry is one buffered update: value Val destined for (insert) or removed
// from (delete) global base row Row. Row ids are unique per table, so at
// most one buffered insert ever exists per row.
type Entry struct {
	Val int64
	Row uint32
}

// SortByVal orders a drained batch by value, the order the indexes merge it in.
func SortByVal(es []Entry) {
	slices.SortFunc(es, func(a, b Entry) int { return cmp.Compare(a.Val, b.Val) })
}

// Queue is the ingest buffer of one column shard: the part's not-yet-merged
// inserts and deletes behind their own mutex, so writers enqueue updates
// without ever taking the shard's RW latch, readers fold the buffer's net
// contribution into their results, and the merge step drains batches. The
// mutex is a leaf — Queue methods never take any other lock — so they can be
// called with or without the shard latch held. The zero value is an empty
// queue ready for use.
type Queue struct {
	mu  sync.Mutex
	ins []Entry
	del []Entry
	// rowAt indexes the insert buffer by row id (unique per row), so
	// annihilation and value lookups by row are O(1). Allocated lazily on
	// first insert; rebuilt after a drain compacts the buffer.
	rowAt map[uint32]int
	// delAt gives O(1) membership for buffered deletes: a pending-delete row
	// is logically dead and must be hidden from reads, and a duplicate
	// delete of the same (val, row) must not be buffered twice.
	delAt map[Entry]int
}

// Insert buffers an insert of value v for base row `row` and returns the
// queue's new total length (buffered inserts + deletes) — the cap-trigger
// signal for inline merges.
func (q *Queue) Insert(v int64, row uint32) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.rowAt == nil {
		q.rowAt = make(map[uint32]int)
	}
	q.ins = append(q.ins, Entry{v, row})
	q.rowAt[row] = len(q.ins) - 1
	return len(q.ins) + len(q.del)
}

// Delete buffers a delete of (v, row) for a row that is already merged; a
// still-buffered row is deleted with AnnihilateRow instead. It reports
// whether the delete took logical effect: false means the identical delete
// was already buffered (a no-op).
func (q *Queue) Delete(v int64, row uint32) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	e := Entry{v, row}
	if _, ok := q.delAt[e]; ok {
		return false
	}
	q.bufferDelete(e)
	return true
}

// bufferDelete appends e to the delete buffer. Callers hold q.mu.
func (q *Queue) bufferDelete(e Entry) {
	if q.delAt == nil {
		q.delAt = make(map[Entry]int)
	}
	q.del = append(q.del, e)
	q.delAt[e] = len(q.del) - 1
}

// AnnihilateRow logically deletes the buffered insert destined for `row`, if
// any, returning its value. The insert entry itself stays buffered — dense
// part storage can only grow in contiguous row order, so removing it would
// leave a permanent hole no later insert could drain past — and a paired
// delete is buffered alongside it. The pair nets to zero in every read and
// count; the merge materialises the row and tombstones it on the following
// step. The report is true only when this call killed a live buffered insert.
func (q *Queue) AnnihilateRow(row uint32) (int64, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	i, ok := q.rowAt[row]
	if !ok {
		return 0, false
	}
	e := q.ins[i]
	if _, dead := q.delAt[e]; dead {
		return 0, false
	}
	q.bufferDelete(e)
	return e.Val, true
}

// HasDelete reports whether a delete of (v, row) is buffered — i.e. whether
// the merged row is logically dead already.
func (q *Queue) HasDelete(v int64, row uint32) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	_, ok := q.delAt[Entry{v, row}]
	return ok
}

// MinInsertRowFor returns the lowest buffered-insert row id holding value v
// live — inserts already paired with a delete (AnnihilateRow) are dead and
// skipped.
func (q *Queue) MinInsertRowFor(v int64) (row uint32, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, e := range q.ins {
		if e.Val != v {
			continue
		}
		if _, dead := q.delAt[e]; dead {
			continue
		}
		if !ok || e.Row < row {
			row, ok = e.Row, true
		}
	}
	return row, ok
}

// CountSum returns the buffer's net contribution to a range select over
// [lo, hi): buffered inserts add, buffered deletes subtract (their rows are
// in the merged structures and would otherwise be counted there).
func (q *Queue) CountSum(lo, hi int64) (count int, sum int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, e := range q.ins {
		if e.Val >= lo && e.Val < hi {
			count++
			sum += e.Val
		}
	}
	for _, e := range q.del {
		if e.Val >= lo && e.Val < hi {
			count--
			sum -= e.Val
		}
	}
	return count, sum
}

// Counts returns the number of buffered inserts and deletes.
func (q *Queue) Counts() (ins, del int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.ins), len(q.del)
}

// Len returns the total buffered operations.
func (q *Queue) Len() int {
	ins, del := q.Counts()
	return ins + del
}

// Drain removes and returns up to max buffered operations for the merge
// step to apply: buffered deletes whose target row is already merged
// (Row < next), plus the longest prefix of buffered inserts that is
// contiguous in row order starting at row `next` and stepping by `stride` —
// the only order in which the part's dense base storage can grow. Inserts
// whose row ids leave a gap (a writer still in flight between row-id
// assignment and enqueue) stay buffered for the next drain, as does a
// delete paired with a still-buffered insert (AnnihilateRow): releasing it
// early would force the merge to drop it against a row that does not exist
// yet, resurrecting the row once its insert lands. Such a pair drains over
// two steps — the insert materialises, then the delete tombstones it.
// max <= 0 means no limit.
func (q *Queue) Drain(next uint32, stride int, max int) (ins, del []Entry) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if max <= 0 {
		max = len(q.ins) + len(q.del)
	}
	// Applicable deletes drain first; application order does not matter for
	// tombstoning. Compaction moves survivors, so their index rebuilds.
	if len(q.del) > 0 {
		kept := q.del[:0]
		for _, e := range q.del {
			if e.Row < next && len(del) < max {
				del = append(del, e)
				delete(q.delAt, e)
			} else {
				kept = append(kept, e)
			}
		}
		q.del = kept
		for i, e := range q.del {
			q.delAt[e] = i
		}
	}
	budget := max - len(del)
	if budget == 0 || len(q.ins) == 0 {
		return ins, del
	}
	// Sort the insert buffer by row, take the contiguous prefix, compact the
	// remainder to the front and rebuild the row index.
	slices.SortFunc(q.ins, func(a, b Entry) int { return cmp.Compare(a.Row, b.Row) })
	k := 0
	for k < len(q.ins) && k < budget && q.ins[k].Row == next {
		next += uint32(stride)
		k++
	}
	if k > 0 {
		ins = append(ins, q.ins[:k]...)
		copy(q.ins, q.ins[k:])
		q.ins = q.ins[:len(q.ins)-k]
	}
	clear(q.rowAt)
	for i, e := range q.ins {
		q.rowAt[e.Row] = i
	}
	return ins, del
}
