package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"holistic/internal/shard"
)

// Table is a collection of equal-length integer columns.
//
// Write concurrency: t.mu gives row-level atomicity across columns and
// serialises column creation. Inserts hold it SHARED — any number of writers
// append concurrently, each reserving its batch's row ids under idMu and
// enqueueing per-column into the shards' ingest queues — while deletes
// hold it EXCLUSIVE, so a delete never observes a half-inserted row (some
// columns enqueued, others not). Neither path touches a part's RW latch;
// buffered updates reach the index structures via merge refinement actions
// (see package shard). A delete resolves "the first live row holding v"
// through the column's indexes (shard.Column.FirstLive: the cracked piece
// holding v or a sorted index's run of duplicates, a scan only for a part
// with no index), so the exclusive hold is microseconds, not a column scan.
//
// Reads take no table lock at all: the catalog is a copy-on-write snapshot
// behind an atomic pointer, so a select resolves its column with one load.
// It must not queue on t.mu — a sync.RWMutex blocks new readers behind a
// waiting writer, so one insert fsyncing under the shared side plus one
// delete waiting for the exclusive side would stall every select on the
// table for the length of the fsync.
type Table struct {
	name string
	eng  *Engine

	mu   sync.RWMutex
	cat  atomic.Pointer[catalog] // never nil; republished under mu held exclusively
	rows atomic.Int64            // total rows ever inserted (including deleted)
	live atomic.Int64            // live (non-deleted) rows

	// idMu serializes row-id reservation, together with the write-ahead log
	// append when a WriteLog is attached: a batch's ids are reserved (and
	// logged) inside one critical section, so WAL order equals row-id order
	// and a failed batch burns no ids (a burned id would be a permanent gap
	// that stalls the contiguous-prefix ingest drain).
	idMu sync.Mutex
}

// catalog is one immutable version of a table's column set. Adding a column
// publishes a new catalog; a published one is never written again, so any
// goroutine may use the version it loaded without a lock.
type catalog struct {
	cols  map[string]*shard.Column
	order []string // column order for row-wise operations
}

// with returns a copy of c extended by one column.
func (c *catalog) with(name string, sc *shard.Column) *catalog {
	next := &catalog{
		cols:  make(map[string]*shard.Column, len(c.cols)+1),
		order: append(c.order[:len(c.order):len(c.order)], name),
	}
	for k, v := range c.cols {
		next.cols[k] = v
	}
	next.cols[name] = sc
	return next
}

func newTable(name string, e *Engine) *Table {
	t := &Table{name: name, eng: e}
	t.cat.Store(&catalog{})
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Columns returns the column names in creation order.
func (t *Table) Columns() []string {
	return append([]string(nil), t.cat.Load().order...)
}

// Rows returns the number of live rows.
func (t *Table) Rows() int {
	return int(t.live.Load())
}

// AddColumnFromSlice adds a column populated with vals (adopted, not
// copied). The length must match the table's existing columns. The column is
// split into Config.Shards striped parts and registered with the strategy's
// monitoring machinery — per part for the holistic tuner, so every shard is
// an independent refinement target.
func (t *Table) AddColumnFromSlice(name string, vals []int64) error {
	return t.addColumnFromSlice(name, vals, true)
}

func (t *Table) addColumnFromSlice(name string, vals []int64, logIt bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	cat := t.cat.Load()
	if _, ok := cat.cols[name]; ok {
		return fmt.Errorf("%w: %s.%s", ErrColumnExists, t.name, name)
	}
	if len(cat.order) > 0 && int64(len(vals)) != t.rows.Load() {
		return fmt.Errorf("%w: %s.%s has %d values, table has %d rows",
			ErrLengthMismatch, t.name, name, len(vals), t.rows.Load())
	}
	if logIt && t.eng.wlog != nil {
		// Log before adopting vals: the record carries the full contents.
		if err := t.eng.wlog.LogAddColumn(t.name, name, vals); err != nil {
			return err
		}
	}
	sc, err := shard.NewColumn(t.name+"."+name, vals, t.eng.shardConfig())
	if err != nil {
		return err
	}
	if len(cat.order) == 0 {
		t.rows.Store(int64(len(vals)))
		t.live.Store(int64(len(vals)))
	}
	// Register with the strategy's machinery, then publish: a select can
	// resolve the column the moment it is in the catalog.
	t.eng.registerColumn(sc)
	t.cat.Store(cat.with(name, sc))
	return nil
}

// column resolves a column by bare name, lock-free (see Table).
func (t *Table) column(name string) (*shard.Column, error) {
	sc, ok := t.cat.Load().cols[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoColumn, t.name, name)
	}
	return sc, nil
}

// InsertRow appends one row — a one-row InsertRows batch; vals must follow
// column creation order. It returns the new row id. The table lock is held
// SHARED: concurrent inserts proceed in parallel, each reserving its row id
// in one short critical section (so every column of one row agrees on the
// id) and enqueueing per column into the row's shard ingest queue — no part
// latch is taken. Index structures absorb the insert when the buffered batch
// is merged by a refinement action (or inline once a queue outgrows its
// cap); reads see the row immediately, through each part's queue.
func (t *Table) InsertRow(vals ...int64) (uint32, error) {
	return t.InsertRows([][]int64{vals})
}

// InsertRows appends a batch of rows — one multi-group INSERT statement —
// and returns the first new row id. The whole batch shares one shared-lock
// acquisition and one idle-pool admission; row ids are consecutive. A batch
// is atomic: every row is validated and the ids reserved (see idMu) before
// any row is enqueued, so a failed batch inserts nothing. Concurrent batches
// may interleave their enqueues — the ingest queues key by row id and drain
// in dense order regardless.
func (t *Table) InsertRows(rows [][]int64) (uint32, error) {
	if len(rows) == 0 {
		return 0, fmt.Errorf("%w: empty insert batch", ErrLengthMismatch)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	defer t.eng.writeBegin()()
	cat := t.cat.Load()
	for _, vals := range rows {
		if len(vals) != len(cat.order) {
			return 0, fmt.Errorf("%w: insert of %d values into %d columns",
				ErrLengthMismatch, len(vals), len(cat.order))
		}
	}
	t.idMu.Lock()
	r := t.rows.Load()
	if r+int64(len(rows)) > int64(shard.MaxRows) {
		t.idMu.Unlock()
		return 0, shard.ErrTooLarge
	}
	if t.eng.wlog != nil {
		if err := t.eng.wlog.LogInsert(t.name, uint32(r), rows); err != nil {
			t.idMu.Unlock()
			return 0, err
		}
	}
	t.rows.Add(int64(len(rows)))
	t.idMu.Unlock()
	for i, vals := range rows {
		g := uint32(r + int64(i))
		for j, name := range cat.order {
			cat.cols[name].AppendAt(g, vals[j])
		}
	}
	t.live.Add(int64(len(rows)))
	return uint32(r), nil
}

// DeleteWhere removes the first live row whose column `col` equals value —
// a one-value DeleteWhereIn. It reports whether a row was deleted; a row
// deleted in memory whose log append failed reports true with the error.
func (t *Table) DeleteWhere(col string, value int64) (bool, error) {
	n, err := t.DeleteWhereIn(col, []int64{value})
	return n > 0, err
}

// logDeleteLocked records a delete's resolved row ids, after they were
// tombstoned under the held exclusive table lock (resolution of later
// values in a batch depends on earlier deletes being visible, so deletes
// cannot be log-first the way inserts are). WAL order still equals apply
// order — nothing else writes while the exclusive lock is held. On a log
// failure the unacknowledged deletes stay applied in memory; recovery
// treats them as the one in-flight statement a crash may lose.
func (t *Table) logDeleteLocked(rows []uint32) error {
	if t.eng.wlog == nil || len(rows) == 0 {
		return nil
	}
	return t.eng.wlog.LogDelete(t.name, rows)
}

// DeleteWhereIn removes, for each value in values, the first live row whose
// column `col` equals it — the batched DELETE ... WHERE col IN (...) form.
// It returns how many rows were deleted, sharing one exclusive-lock
// acquisition and one idle-pool admission across the batch. Deletes hold the
// table lock EXCLUSIVE — a delete must never observe a row some of whose
// columns are still being enqueued — and buffer a per-shard delete for every
// column (applied as tombstones at the next merge); a row still sitting in
// the ingest queues is annihilated in place and never reaches the structures.
func (t *Table) DeleteWhereIn(col string, values []int64) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	defer t.eng.writeBegin()()
	deleted := 0
	resolved := make([]uint32, 0, len(values))
	for _, v := range values {
		row, ok, err := t.deleteWhereLocked(col, v)
		if err != nil {
			return deleted, err
		}
		if ok {
			deleted++
			resolved = append(resolved, row)
		}
	}
	if err := t.logDeleteLocked(resolved); err != nil {
		return deleted, err
	}
	return deleted, nil
}

// deleteWhereLocked deletes under a held exclusive table lock, returning
// the resolved global row id.
func (t *Table) deleteWhereLocked(col string, value int64) (uint32, bool, error) {
	cat := t.cat.Load()
	sc, ok := cat.cols[col]
	if !ok {
		return 0, false, fmt.Errorf("%w: %s.%s", ErrNoColumn, t.name, col)
	}
	row, found := sc.FirstLive(value)
	if !found {
		return 0, false, nil
	}
	for _, sc := range cat.cols {
		sc.DeleteRow(row)
	}
	t.live.Add(-1)
	return row, true, nil
}

// MergePending drains every column's ingest queues into the index
// structures and returns the operations applied. Quiesce helper: tests and
// checkpoints call it to force buffered updates through before validating.
func (t *Table) MergePending() int {
	total := 0
	for _, sc := range t.cat.Load().cols {
		total += sc.MergePending()
	}
	return total
}

// PendingOps returns the buffered update operations across all columns.
func (t *Table) PendingOps() int {
	total := 0
	for _, sc := range t.cat.Load().cols {
		ins, del := sc.PendingCounts()
		total += ins + del
	}
	return total
}
