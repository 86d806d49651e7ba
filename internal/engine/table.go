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
// append concurrently, each taking a ticket (its batch's row ids and its log
// record's end offset) under idMu and enqueueing per-column into the shards'
// ingest queues — while deletes hold it EXCLUSIVE, so a delete resolves
// against a stable set of rows. Neither path touches a part's RW latch;
// buffered updates reach the index structures via merge refinement actions
// (see package shard). A delete resolves "the first live row holding v"
// through the column's indexes (shard.Column.FirstLive: the cracked piece
// holding v or a sorted index's run of duplicates, a scan only for a part
// with no index), so the exclusive hold is microseconds, not a column scan.
//
// No lock is held across a durability wait. An insert releases t.mu once
// its rows are enqueued, waits for its record to be durable, and then
// publishes the batch whole: the table's visibility watermark, which every
// column shares (shard.Config.Visible), moves past its rows, in ticket
// order. Until then no read counts the rows, no delete resolves them and no
// merge drains them, so a batch is visible in every column and part at
// once or not at all, and never before it is durable. A delete applies and
// logs under t.mu and waits after releasing it; its rows disappear value by
// value as it applies them.
//
// Reads take no table lock at all: the catalog is a copy-on-write snapshot
// behind an atomic pointer, so a select resolves its column with one load
// and the watermark with another. It must not queue on t.mu — a
// sync.RWMutex blocks new readers behind a waiting writer, so one delete
// waiting for the exclusive side would stall every select on the table
// behind the inserts holding the shared side.
type Table struct {
	name string
	eng  *Engine

	mu   sync.RWMutex
	cat  atomic.Pointer[catalog] // never nil; republished under mu held exclusively
	rows atomic.Int64            // row ids handed out (including deleted and unpublished rows)
	live atomic.Int64            // live (non-deleted) published rows
	// visible is the visibility watermark: rows below it are published.
	visible atomic.Int64
	// deletes is odd while a DELETE applies under t.mu and counts up by
	// two per DELETE: countSum's check for a delete during a read.
	deletes atomic.Int64

	// idMu serializes tickets: row-id reservation together with the
	// write-ahead log append when a WriteLog is attached. A batch's ids are
	// reserved and logged inside one critical section, so WAL order equals
	// row-id order, and a batch whose append fails burns no ids (a burned id
	// would be a permanent gap that stalls the contiguous-prefix ingest
	// drain).
	idMu sync.Mutex

	// pubMu guards pending, the tickets taken and not yet published, in
	// row order; published signals when pending empties.
	pubMu     sync.Mutex
	pending   []*ticket
	published *sync.Cond
}

// ticket is one insert batch on its way to publication: its rows
// [first, first+n) and its log record's end offset.
type ticket struct {
	first, n, end int64
	// done: the batch is ready to publish; ok: it was logged durably (a
	// failed batch is annihilated in the queues and publishes dead).
	done, ok bool
	// ready is made by an owner that must wait for earlier tickets, and
	// closed once the batch is published.
	ready chan struct{}
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
	t.published = sync.NewCond(&t.pubMu)
	t.cat.Store(&catalog{})
	return t
}

// shardConfig is the engine's column configuration with the table's
// visibility watermark.
func (t *Table) shardConfig() shard.Config {
	cfg := t.eng.shardConfig()
	cfg.Visible = &t.visible
	return cfg
}

// publish marks tk ready, ok or not, and returns once it is published. The
// owner of the oldest pending ticket publishes it and every ready ticket
// behind it, in row order, raising the watermark past each; an owner with
// older tickets pending waits to be published by theirs.
func (t *Table) publish(tk *ticket, ok bool) {
	t.pubMu.Lock()
	tk.done, tk.ok = true, ok
	if t.pending[0] != tk {
		tk.ready = make(chan struct{})
		t.pubMu.Unlock()
		<-tk.ready
		return
	}
	k := 0
	for ; k < len(t.pending) && t.pending[k].done; k++ {
		p := t.pending[k]
		if p.ok {
			t.live.Add(p.n)
		}
		t.visible.Store(p.first + p.n)
		if p.ready != nil {
			close(p.ready)
		}
	}
	n := copy(t.pending, t.pending[k:])
	clear(t.pending[n:])
	t.pending = t.pending[:n]
	if n == 0 {
		t.published.Broadcast()
	}
	t.pubMu.Unlock()
}

// waitPublishedLocked returns once every ticket taken is published. Callers
// hold t.mu exclusively, so no new ticket is taken meanwhile and the
// watermark ends at t.rows.
func (t *Table) waitPublishedLocked() {
	t.pubMu.Lock()
	for len(t.pending) > 0 {
		t.published.Wait()
	}
	t.pubMu.Unlock()
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

// AddColumnFromSlice adds a column populated with vals. The length must
// match the table's existing columns. The column adopts vals as its
// storage, so the caller must not reuse it: with Config.Shards > 1 the
// parts are striped in place into vals' own memory (shard.NewColumn). Either
// way each part's value bounds come out of the load. With the holistic tuner
// every shard is an independent refinement target, bidding with the column's
// one workload sketch.
func (t *Table) AddColumnFromSlice(name string, vals []int64) error {
	return t.addColumnFromSlice(name, vals, true)
}

func (t *Table) addColumnFromSlice(name string, vals []int64, logIt bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.waitPublishedLocked()
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
	sc, err := shard.NewColumn(t.name+"."+name, vals, t.shardConfig())
	if err != nil {
		return err
	}
	if len(cat.order) == 0 {
		t.rows.Store(int64(len(vals)))
		t.visible.Store(int64(len(vals)))
		t.live.Store(int64(len(vals)))
	}
	// Register with the strategy's machinery, then publish: a select can
	// resolve the column the moment it is in the catalog.
	t.eng.registerColumn(sc)
	t.cat.Store(cat.with(name, sc))
	return nil
}

// countSum answers [lo, hi) on sc, a column of t, at one cut of the
// table's contents: it loads the watermark once and reads every part at it
// (shard.Column.CountSum, probing each part first and answering the parts
// that decline with run). Deletes have no watermark — they apply in place —
// so in the rare read during which a batch was published and a DELETE
// applied, a part could show the delete but not the batch published before
// it; that read is repeated at the new watermark.
func (t *Table) countSum(sc *shard.Column, lo, hi int64, run func(p *shard.Part, lo, hi, vis int64) (int, int64)) (int, int64) {
	for {
		d, vis := t.deletes.Load(), t.visible.Load()
		count, sum := sc.CountSum(lo, hi, vis, (*shard.Part).ProbeAt, run)
		if t.visible.Load() == vis || (d%2 == 0 && t.deletes.Load() == d) {
			return count, sum
		}
	}
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
// column creation order. It returns the new row id.
func (t *Table) InsertRow(vals ...int64) (uint32, error) {
	return t.InsertRows([][]int64{vals})
}

// InsertRows appends a batch of rows — one multi-group INSERT statement —
// and returns the first new row id. The whole batch shares one shared-lock
// acquisition and one idle-pool admission; row ids are consecutive. Under
// the table lock held SHARED (concurrent inserts proceed in parallel) the
// batch takes its ticket and is enqueued per column into the rows' shard
// ingest queues — no part latch is taken. The lock released, it waits for
// its log record to be durable and is published whole (see Table): a batch
// is atomic. Every row is validated and the ids reserved before any row is
// enqueued, so a batch refused up front inserts nothing; a batch whose
// durability wait fails is annihilated in the queues before it publishes,
// so no read ever sees it. Index structures absorb the rows when the
// buffered batch is merged by a refinement action, or inline, after the
// batch publishes, on the writer whose rows pushed a queue to its cap.
func (t *Table) InsertRows(rows [][]int64) (uint32, error) {
	if len(rows) == 0 {
		return 0, fmt.Errorf("%w: empty insert batch", ErrLengthMismatch)
	}
	defer t.eng.writeBegin()()
	tk, cat, due, err := t.enqueue(rows)
	if err != nil {
		return 0, err
	}
	if t.eng.wlog != nil {
		if err := t.eng.wlog.WaitDurable(tk.end); err != nil {
			for g := tk.first; g < tk.first+tk.n; g++ {
				for _, sc := range cat.cols {
					sc.DeleteRow(uint32(g))
				}
			}
			t.publish(tk, false)
			return 0, err
		}
	}
	t.publish(tk, true)
	for _, p := range due {
		p.MergeStep(0)
	}
	return uint32(tk.first), nil
}

// enqueue validates a batch, takes its ticket and enqueues its rows under
// the shared table lock. It returns the ticket, the catalog the rows went
// into and the parts whose queues they pushed to the cap.
func (t *Table) enqueue(rows [][]int64) (tk *ticket, cat *catalog, due []*shard.Part, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	cat = t.cat.Load()
	if len(cat.order) == 0 { // the log records no row without values
		return nil, nil, nil, fmt.Errorf("%w: table %s has no columns", ErrLengthMismatch, t.name)
	}
	for _, vals := range rows {
		if len(vals) != len(cat.order) {
			return nil, nil, nil, fmt.Errorf("%w: insert of %d values into %d columns",
				ErrLengthMismatch, len(vals), len(cat.order))
		}
	}
	t.idMu.Lock()
	r := t.rows.Load()
	if r+int64(len(rows)) > int64(shard.MaxRows) {
		t.idMu.Unlock()
		return nil, nil, nil, shard.ErrTooLarge
	}
	tk = &ticket{first: r, n: int64(len(rows))}
	if t.eng.wlog != nil {
		if tk.end, err = t.eng.wlog.LogInsert(t.name, uint32(r), rows); err != nil {
			t.idMu.Unlock()
			return nil, nil, nil, err
		}
	}
	t.rows.Add(tk.n)
	t.pubMu.Lock()
	t.pending = append(t.pending, tk)
	t.pubMu.Unlock()
	t.idMu.Unlock()
	for i, vals := range rows {
		g := uint32(r + int64(i))
		for j, name := range cat.order {
			if p := cat.cols[name].Enqueue(g, vals[j]); p != nil {
				due = append(due, p)
			}
		}
	}
	return tk, cat, due, nil
}

// DeleteWhere removes the first live row whose column `col` equals value —
// a one-value DeleteWhereIn. It reports whether a row was deleted; a row
// deleted in memory whose log append failed reports true with the error.
func (t *Table) DeleteWhere(col string, value int64) (bool, error) {
	n, err := t.DeleteWhereIn(col, []int64{value})
	return n > 0, err
}

// DeleteWhereIn removes, for each value in values, the first live row whose
// column `col` equals it — the batched DELETE ... WHERE col IN (...) form.
// It returns how many rows were deleted, sharing one exclusive-lock
// acquisition and one idle-pool admission across the batch. A delete holds
// the table lock EXCLUSIVE while it resolves published rows only and
// buffers a per-shard delete for every column (applied as tombstones at the
// next merge); a row still sitting in the ingest queues is annihilated in
// place and never reaches the structures. It logs the resolved rows under
// the lock and waits for the record to be durable after releasing it.
func (t *Table) DeleteWhereIn(col string, values []int64) (int, error) {
	defer t.eng.writeBegin()()
	deleted, end, err := t.deleteWhereIn(col, values)
	if err != nil || end == 0 {
		return deleted, err
	}
	return deleted, t.eng.wlog.WaitDurable(end)
}

// deleteWhereIn applies a DELETE under the exclusive table lock and appends
// its resolved row ids to the log, returning the record's end offset (0 when
// nothing was logged). Resolution of later values in a batch depends on
// earlier deletes being applied, so deletes cannot be log-first the way
// inserts are; WAL order still equals apply order — nothing else writes
// while the exclusive lock is held. On a log failure the unacknowledged
// deletes stay applied in memory; recovery treats them as the statement in
// flight that a crash may lose.
func (t *Table) deleteWhereIn(col string, values []int64) (deleted int, end int64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	resolved := make([]uint32, 0, len(values))
	t.deletes.Add(1)
	for _, v := range values {
		row, ok, err := t.deleteWhereLocked(col, v)
		if err != nil {
			t.deletes.Add(1)
			return deleted, 0, err
		}
		if ok {
			deleted++
			resolved = append(resolved, row)
		}
	}
	t.deletes.Add(1)
	if t.eng.wlog == nil || len(resolved) == 0 {
		return deleted, 0, nil
	}
	end, err = t.eng.wlog.LogDelete(t.name, resolved)
	return deleted, end, err
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
