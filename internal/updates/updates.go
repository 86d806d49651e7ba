// Package updates implements update support for cracked columns following
// the "merge gradually" design of Updating a Cracked Database (Idreos,
// Kersten, Manegold, SIGMOD 2007). Inserts and deletes land in per-column
// pending buffers; a merge step drains a batch and every index of the part
// merges it in one pass (cracker.Index.Merge, sortindex.Index.Merge), so
// update cost is deferred and paid during idle time (or amortised over
// batches) instead of inside the writer's critical path.
//
// Queue wraps a Pending in a private mutex, giving writers a finely-latched
// ingest path that never touches the column's RW latch, plus the
// snapshot-read primitives (net CountSum over the buffer) and the contiguous
// Drain the merge step consumes.
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

// Pending buffers not-yet-merged inserts and deletes for one cracked column
// shard. It is not safe for concurrent use; wrap it in a Queue (or guard it
// with the column latch) for concurrent writers.
type Pending struct {
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

// Insert buffers an insert of value v for base row `row`.
func (p *Pending) Insert(v int64, row uint32) {
	if p.rowAt == nil {
		p.rowAt = make(map[uint32]int)
	}
	p.ins = append(p.ins, Entry{v, row})
	p.rowAt[row] = len(p.ins) - 1
}

// Delete buffers a delete of (v, row) for a row that is already merged; a
// still-buffered row is deleted with AnnihilateRow instead. It reports
// whether the delete took logical effect: false means the identical delete
// was already buffered (a no-op).
func (p *Pending) Delete(v int64, row uint32) bool {
	e := Entry{v, row}
	if _, ok := p.delAt[e]; ok {
		return false
	}
	if p.delAt == nil {
		p.delAt = make(map[Entry]int)
	}
	p.del = append(p.del, e)
	p.delAt[e] = len(p.del) - 1
	return true
}

// AnnihilateRow logically deletes the buffered insert destined for `row`, if
// any, returning its value. The insert entry itself stays buffered — dense
// part storage can only grow in contiguous row order, so removing it would
// leave a permanent hole no later insert could drain past — and a paired
// delete is buffered alongside it. The pair nets to zero in every read and
// count; the merge materialises the row and tombstones it on the following
// step. The report is true only when this call killed a live buffered insert.
func (p *Pending) AnnihilateRow(row uint32) (int64, bool) {
	i, ok := p.rowAt[row]
	if !ok {
		return 0, false
	}
	e := p.ins[i]
	if _, dead := p.delAt[e]; dead {
		return 0, false
	}
	if p.delAt == nil {
		p.delAt = make(map[Entry]int)
	}
	p.del = append(p.del, e)
	p.delAt[e] = len(p.del) - 1
	return e.Val, true
}

// HasDelete reports whether a delete of (v, row) is buffered — i.e. whether
// the merged row is logically dead already.
func (p *Pending) HasDelete(v int64, row uint32) bool {
	_, ok := p.delAt[Entry{v, row}]
	return ok
}

// MinInsertRowFor returns the lowest buffered-insert row id holding value v
// live — inserts already paired with a delete (AnnihilateRow) are dead and
// skipped.
func (p *Pending) MinInsertRowFor(v int64) (row uint32, ok bool) {
	for _, e := range p.ins {
		if e.Val != v {
			continue
		}
		if _, dead := p.delAt[e]; dead {
			continue
		}
		if !ok || e.Row < row {
			row, ok = e.Row, true
		}
	}
	return row, ok
}

// CountSumNet returns the buffer's net contribution to a range select over
// [lo, hi): buffered inserts add, buffered deletes subtract (their rows are
// in the merged structures and would otherwise be counted there).
func (p *Pending) CountSumNet(lo, hi int64) (count int, sum int64) {
	for _, e := range p.ins {
		if e.Val >= lo && e.Val < hi {
			count++
			sum += e.Val
		}
	}
	for _, e := range p.del {
		if e.Val >= lo && e.Val < hi {
			count--
			sum -= e.Val
		}
	}
	return count, sum
}

// Counts returns the number of buffered inserts and deletes.
func (p *Pending) Counts() (ins, del int) { return len(p.ins), len(p.del) }

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
func (p *Pending) Drain(next uint32, stride int, max int) (ins, del []Entry) {
	if max <= 0 {
		max = len(p.ins) + len(p.del)
	}
	// Applicable deletes drain first; application order does not matter for
	// tombstoning. Compaction moves survivors, so their index rebuilds.
	if len(p.del) > 0 {
		kept := p.del[:0]
		for _, e := range p.del {
			if e.Row < next && len(del) < max {
				del = append(del, e)
				delete(p.delAt, e)
			} else {
				kept = append(kept, e)
			}
		}
		p.del = kept
		for i, e := range p.del {
			p.delAt[e] = i
		}
	}
	budget := max - len(del)
	if budget == 0 || len(p.ins) == 0 {
		return ins, del
	}
	// Sort the insert buffer by row, take the contiguous prefix, compact the
	// remainder to the front and rebuild the row index.
	slices.SortFunc(p.ins, func(a, b Entry) int { return cmp.Compare(a.Row, b.Row) })
	k := 0
	for k < len(p.ins) && k < budget && p.ins[k].Row == next {
		next += uint32(stride)
		k++
	}
	if k > 0 {
		ins = append(ins, p.ins[:k]...)
		copy(p.ins, p.ins[k:])
		p.ins = p.ins[:len(p.ins)-k]
	}
	clear(p.rowAt)
	for i, e := range p.ins {
		p.rowAt[e.Row] = i
	}
	return ins, del
}

// Queue is the concurrent ingest buffer of one column shard: a Pending
// behind its own mutex, so writers enqueue updates without ever taking the
// shard's RW latch, readers fold the buffer's net contribution into
// snapshot results, and the merge step drains batches. The mutex is leaf —
// Queue methods never take any other lock — so it can be called with or
// without the shard latch held, in either order.
type Queue struct {
	mu sync.Mutex
	p  Pending
}

// Insert enqueues an insert and returns the queue's new total length
// (buffered inserts + deletes) — the cap-trigger signal for inline merges.
func (q *Queue) Insert(v int64, row uint32) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.p.Insert(v, row)
	return len(q.p.ins) + len(q.p.del)
}

// Delete enqueues a delete of (v, row) for a merged row. It reports whether
// the delete took logical effect (false: the identical delete was already
// buffered).
func (q *Queue) Delete(v int64, row uint32) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.p.Delete(v, row)
}

// AnnihilateRow removes the buffered insert for `row`, returning its value.
func (q *Queue) AnnihilateRow(row uint32) (int64, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.p.AnnihilateRow(row)
}

// HasDelete reports whether a delete of (v, row) is buffered.
func (q *Queue) HasDelete(v int64, row uint32) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.p.HasDelete(v, row)
}

// MinInsertRowFor returns the lowest buffered-insert row holding value v.
func (q *Queue) MinInsertRowFor(v int64) (uint32, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.p.MinInsertRowFor(v)
}

// CountSum returns the buffer's net (count, sum) contribution on [lo, hi).
func (q *Queue) CountSum(lo, hi int64) (int, int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.p.CountSumNet(lo, hi)
}

// Counts returns the buffered (inserts, deletes).
func (q *Queue) Counts() (ins, del int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.p.Counts()
}

// Len returns the total buffered operations.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.p.ins) + len(q.p.del)
}

// Drain removes and returns up to max operations in mergeable order: all
// deletes plus the row-contiguous insert prefix from `next` stepping
// `stride`. See Pending.Drain.
func (q *Queue) Drain(next uint32, stride int, max int) (ins, del []Entry) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.p.Drain(next, stride, max)
}
