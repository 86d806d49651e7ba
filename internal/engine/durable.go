package engine

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"holistic/internal/core"
	"holistic/internal/shard"
)

// ErrReadOnly marks writes rejected because the durability layer has
// degraded: the statement log can no longer persist mutations, so the
// engine stops admitting them rather than diverge memory from disk. The
// server surfaces it as a structured wire error; reads keep working.
var ErrReadOnly = errors.New("engine: read-only mode, durability degraded")

// WriteLog is the engine's durability hook. When attached (snapshot.Open
// attaches its Store once it has replayed the log into the engine), every
// mutation is logged and durable BEFORE it is acknowledged; a non-nil
// error aborts the statement (inserts are logged before their row ids are
// committed, so a failed append burns nothing). Implementations wrap
// persistent failures with ErrReadOnly to flip the engine read-only.
//
// Column loads, inserts and deletes append and wait in two calls:
// LogAddColumn, LogInsert and LogDelete append a record and return the
// offset it ends at, and WaitDurable blocks until it is durable. No lock is
// held across an insert's or a delete's durability wait — the appends run
// under the table's locks, which order the records, and the waits run after
// those locks are released, so concurrent writers share one fsync (group
// commit). A column load waits under its table's lock, alongside its stripe
// pass, and publishes the column once both are done. LogCreateTable, rare
// and serialised anyway, appends and waits in one call.
//
// Records are logical, not textual: deletes carry the row ids the
// statement resolved, because DeleteWhere's "first live row" resolution
// depends on interleaving and replaying by value could pick a different
// row on a multi-column table.
type WriteLog interface {
	// LogCreateTable records a CREATE TABLE and waits until it is durable.
	LogCreateTable(table string) error
	// LogAddColumn appends a column load's record with its full contents
	// and returns the record's end offset. The record is written before it
	// returns: the caller may then write over vals.
	LogAddColumn(table, col string, vals []int64) (end int64, err error)
	// LogInsert appends an insert batch starting at row id first and
	// returns the record's end offset. It is called with the table's id
	// mutex held: calls arrive in row-id order.
	LogInsert(table string, first uint32, rows [][]int64) (end int64, err error)
	// LogDelete appends the resolved global row ids one DELETE removed and
	// returns the record's end offset. It is called with the table lock
	// held exclusively, after the rows were tombstoned: a failed log leaves
	// the (unacknowledged) deletes applied in memory, which recovery treats
	// as an in-flight statement.
	LogDelete(table string, rows []uint32) (end int64, err error)
	// WaitDurable returns once every record ending at or before end is
	// durable. It is called with no lock held.
	WaitDurable(end int64) error
}

// LogStats is the write log's traffic, for \stats: the records appended
// and fsyncs made since it opened, and the bytes appended but not yet known
// durable.
type LogStats struct {
	Records         int64 `json:"records"`
	Fsyncs          int64 `json:"fsyncs"`
	DurableLagBytes int64 `json:"durable_lag_bytes"`
}

// SetWriteLog attaches the durability hook. Call once at boot, before the
// engine serves any traffic. snapshot.Open calls it for its Store; a direct
// call is for a test that logs to a fake.
func (e *Engine) SetWriteLog(wl WriteLog) { e.wlog = wl }

// ReadOnly reports whether the attached write log has degraded — the
// engine is rejecting mutations with ErrReadOnly.
func (e *Engine) ReadOnly() bool {
	if d, ok := e.wlog.(interface{ Degraded() bool }); ok {
		return d.Degraded()
	}
	return false
}

// LogStats reports the attached write log's counters, or nil when no log
// is attached or it keeps none.
func (e *Engine) LogStats() *LogStats {
	if s, ok := e.wlog.(interface{ LogStats() LogStats }); ok {
		st := s.LogStats()
		return &st
	}
	return nil
}

// TableState is one table's serializable state: the column order plus each
// column's per-shard physical snapshot (storage, tombstones, the index with
// its crack boundaries or sorted flag — see shard.ColumnSnapshot).
type TableState struct {
	Name    string
	Order   []string
	Live    int64
	Columns []shard.ColumnSnapshot
}

// EngineState is the full catalog in serializable form, tables sorted by
// name.
type EngineState struct {
	Tables []TableState
}

// CaptureState deep-copies the whole catalog at a consistent cut. It holds
// every table's lock exclusively and waits until every insert ticket taken
// is published (writers hold at most one table lock, each logs and enqueues
// inside it, and a published batch is applied whole, so then every logged
// statement is fully applied and nothing is in flight), drains all pending
// buffers, and invokes cut — the caller reads the WAL offset there, binding
// the state to exactly the log prefix it covers. The copies are
// deep: serialization can proceed after the locks drop.
func (e *Engine) CaptureState(cut func()) (EngineState, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	tables := *e.tables.Load()
	names := slices.Sorted(maps.Keys(tables))
	for _, name := range names {
		t := tables[name]
		t.mu.Lock()
		defer t.mu.Unlock()
		t.waitPublishedLocked()
	}
	if cut != nil {
		cut()
	}
	st := EngineState{Tables: make([]TableState, 0, len(names))}
	for _, name := range names {
		t := tables[name]
		cat := t.cat.Load()
		ts := TableState{
			Name:  name,
			Order: append([]string(nil), cat.order...),
			Live:  t.live.Load(),
		}
		for _, cname := range cat.order {
			snap, err := cat.cols[cname].Snapshot()
			if err != nil {
				return EngineState{}, err
			}
			ts.Columns = append(ts.Columns, snap)
		}
		st.Tables = append(st.Tables, ts)
	}
	return st, nil
}

// RestoreState rebuilds the catalog from a captured state: tables,
// columns, per-shard cracked or sorted indexes, row-id allocators and
// live counters — the warm start that answers its first query without
// re-cracking. The engine must be empty; the shard count of the current
// configuration must match the snapshot's (validated per column).
func (e *Engine) RestoreState(st EngineState) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(*e.tables.Load()) != 0 {
		return fmt.Errorf("engine: RestoreState on a non-empty catalog")
	}
	for _, ts := range st.Tables {
		t := newTable(ts.Name, e)
		cat := t.cat.Load()
		if len(ts.Columns) != len(ts.Order) {
			return fmt.Errorf("engine: restore %s: %d column snapshots for %d columns", ts.Name, len(ts.Columns), len(ts.Order))
		}
		for i, cname := range ts.Order {
			sc, err := shard.NewColumnFromSnapshot(ts.Columns[i], t.shardConfig())
			if err != nil {
				return err
			}
			qname := ts.Name + "." + cname
			if sc.Name() != qname {
				return fmt.Errorf("engine: restore %s: snapshot names column %q", qname, sc.Name())
			}
			cat = cat.with(cname, sc)
			if i == 0 { // NewColumnFromSnapshot checked Rows against the parts
				t.rows.Store(ts.Columns[i].Rows)
				t.visible.Store(ts.Columns[i].Rows)
			}
			e.registerColumn(sc)
		}
		t.live.Store(ts.Live)
		t.cat.Store(cat)
		e.addTableLocked(t)
	}
	return nil
}

// registerColumn hooks a new or restored column into the holistic tuner (the
// online review reads the catalog instead): every part is a candidate of its
// own, and all of them bid with the column's one workload sketch.
func (e *Engine) registerColumn(sc *shard.Column) {
	if e.tuner == nil {
		return
	}
	parts := make([]core.Column, len(sc.Parts()))
	for i, p := range sc.Parts() {
		parts[i] = p
	}
	e.tuner.RegisterColumn(sc.Name(), parts...)
}

// ReplayInsert re-applies a logged insert batch through InsertRows. Rows
// below the table's current high-water mark are already covered by the
// snapshot the replay started from and are skipped, so a record straddling
// the snapshot cut (possible only with an interval-fsync'd log) never
// double-inserts; a record that starts past the mark is a gap in the log.
func (e *Engine) ReplayInsert(table string, first uint32, rows [][]int64) error {
	t, err := e.Table(table)
	if err != nil {
		return err
	}
	cur := t.rows.Load()
	if int64(first) > cur {
		return fmt.Errorf("engine: replay insert at row %d but table %s has only %d rows (log gap)", first, table, cur)
	}
	if skip := cur - int64(first); skip < int64(len(rows)) {
		_, err = t.InsertRows(rows[skip:])
	}
	return err
}

// ReplayDeleteRows re-applies a logged delete by its resolved row ids.
func (e *Engine) ReplayDeleteRows(table string, rows []uint32) error {
	t, err := e.Table(table)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cols := t.cat.Load().cols
	for _, g := range rows {
		if int64(g) >= t.rows.Load() {
			return fmt.Errorf("engine: replay delete of unknown row %d in %s", g, table)
		}
		for _, sc := range cols {
			sc.DeleteRow(g)
		}
		t.live.Add(-1)
	}
	return nil
}
