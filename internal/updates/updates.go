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
	"math"
	"slices"
	"sync"
)

// AllRows is the visibility bound that admits every buffered row: the bound
// of a column whose inserts publish as they are enqueued.
const AllRows = math.MaxInt64

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
// contribution into their results, and the merge step drains batches.
// Readers, resolvers and drains pass a visibility bound: entries for rows at
// or above it belong to statements not yet published, so they count for
// nothing, resolve nothing and stay buffered. The
// mutex is a leaf — Queue methods never take any other lock — so they can be
// called with or without the shard latch held. The zero value is an empty
// queue ready for use.
//
// The insert buffer keeps no index beside it. A lookup by row reads it
// through, as a lookup by value (MinInsertRowFor) always has: both run on
// a DELETE, under the exclusive table latch, and a scan of at most a
// burst's rows costs less there than sorting them would. Drain alone puts
// the buffer in row order, the order the part's storage grows in.
type Queue struct {
	mu  sync.Mutex
	ins []Entry
	del []Entry
	// dels holds exactly del's entries: a pending-delete row is logically
	// dead and must be hidden from reads, and a duplicate delete of the same
	// (val, row) must not be buffered twice.
	dels map[Entry]struct{}
}

// Insert buffers an insert of value v for base row `row` and returns the
// queue's new total length (buffered inserts + deletes) — the cap-trigger
// signal for inline merges.
func (q *Queue) Insert(v int64, row uint32) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.ins = append(q.ins, Entry{v, row})
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
	if _, ok := q.dels[e]; ok {
		return false
	}
	q.bufferDelete(e)
	return true
}

// bufferDelete appends e to the delete buffer. Callers hold q.mu.
func (q *Queue) bufferDelete(e Entry) {
	if q.dels == nil {
		q.dels = make(map[Entry]struct{})
	}
	q.del = append(q.del, e)
	q.dels[e] = struct{}{}
}

// AnnihilateRow logically deletes the buffered insert destined for `row`, if
// any, returning its value. The insert entry itself stays buffered — dense
// part storage can only grow in contiguous row order, so removing it would
// leave a permanent hole no later insert could drain past — and a paired
// delete is buffered alongside it. The pair nets to zero in every read and
// count; the merge materialises the row and tombstones it on the following
// step. The report is true only when this call killed a live buffered insert.
// Drain keeps every buffered row above every merged one, so a shard calls
// it only for a row past its merged storage.
func (q *Queue) AnnihilateRow(row uint32) (int64, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	i := slices.IndexFunc(q.ins, func(e Entry) bool { return e.Row == row })
	if i < 0 {
		return 0, false
	}
	e := q.ins[i]
	if _, dead := q.dels[e]; dead {
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
	_, ok := q.dels[Entry{v, row}]
	return ok
}

// MinInsertRowFor returns the lowest buffered-insert row id below the
// visibility bound holding value v live — inserts already paired with a
// delete (AnnihilateRow) are dead and skipped. Drain keeps every buffered
// row above every merged one, so a shard asks only when no merged row holds v.
func (q *Queue) MinInsertRowFor(v int64, below int64) (row uint32, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, e := range q.ins {
		if e.Val != v || int64(e.Row) >= below {
			continue
		}
		if _, dead := q.dels[e]; dead {
			continue
		}
		if !ok || e.Row < row {
			row, ok = e.Row, true
		}
	}
	return row, ok
}

// CountSum returns the net contribution of the buffer's rows below the
// visibility bound to a range select over [lo, hi): buffered inserts add,
// buffered deletes subtract (their rows are in the merged structures and
// would otherwise be counted there). A delete of a row at or above the bound
// is paired with that row's still-invisible insert, so both are skipped.
func (q *Queue) CountSum(lo, hi, below int64) (count int, sum int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, e := range q.ins {
		if e.Val >= lo && e.Val < hi && int64(e.Row) < below {
			count++
			sum += e.Val
		}
	}
	for _, e := range q.del {
		if e.Val >= lo && e.Val < hi && int64(e.Row) < below {
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
// (Row < next), plus the longest prefix of buffered inserts below the
// visibility bound that is contiguous in row order starting at row `next`
// and stepping by `stride` — the only order in which the part's dense base
// storage can grow. Inserts whose row ids leave a gap (a writer still in
// flight between row-id assignment and enqueue) or are not yet visible stay
// buffered for the next drain, as does a
// delete paired with a still-buffered insert (AnnihilateRow): releasing it
// early would force the merge to drop it against a row that does not exist
// yet, resurrecting the row once its insert lands. Such a pair drains over
// two steps — the insert materialises, then the delete tombstones it.
// max <= 0 means no limit. A buffer the drain empties is released, so a
// queue does not keep the capacity of the largest burst it has seen.
func (q *Queue) Drain(next uint32, stride int, max int, below int64) (ins, del []Entry) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if max <= 0 {
		max = len(q.ins) + len(q.del)
	}
	// Applicable deletes drain first; application order does not matter for
	// tombstoning.
	if len(q.del) > 0 {
		kept := q.del[:0]
		for _, e := range q.del {
			if e.Row < next && len(del) < max {
				del = append(del, e)
				delete(q.dels, e)
			} else {
				kept = append(kept, e)
			}
		}
		q.del = kept
		if len(kept) == 0 {
			q.del, q.dels = nil, nil
		}
	}
	budget := max - len(del)
	if budget == 0 || len(q.ins) == 0 {
		return ins, del
	}
	// Sort the insert buffer by row, take the contiguous prefix and compact
	// the remainder to the front.
	slices.SortFunc(q.ins, func(a, b Entry) int { return cmp.Compare(a.Row, b.Row) })
	k := 0
	for k < len(q.ins) && k < budget && q.ins[k].Row == next && int64(next) < below {
		next += uint32(stride)
		k++
	}
	if k > 0 {
		ins = append(ins, q.ins[:k]...)
		copy(q.ins, q.ins[k:])
		q.ins = q.ins[:len(q.ins)-k]
		if len(q.ins) == 0 {
			q.ins = nil
		}
	}
	return ins, del
}
