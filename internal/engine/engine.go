// Package engine implements the database kernel that hosts offline, online,
// adaptive and holistic indexing side by side — the paper's target artefact:
// "a database kernel that continuously tunes, both during query processing
// and during idle time", with "no external tool or human administration; the
// continuous indexing properties are embedded in the database kernel".
//
// The engine owns a catalog of tables of integer columns (each a
// shard.Column, which holds every part's design), serves the paper's
// query template (SELECT col FROM t WHERE col >= lo AND col < hi) under a
// configurable strategy, supports row inserts and deletes, and — for the
// holistic strategy — drives the tuner (internal/core) through both manual
// idle injection (the experiments' protocol) and an automatic background
// pool of idle workers (Config.IdleWorkers, default GOMAXPROCS).
//
// # Concurrency model
//
// The kernel is multi-core end to end. Every column is split into
// Config.Shards striped parts (package shard), each owning its own index
// (cracked or sorted), pending buffer and latch; a select whose parts have
// enough work to pay for the hand-off fans out one goroutine per part and
// merges partial aggregates, so a single large select executes on multiple
// cores — intra-query parallelism, not just inter-query. Latching has three levels (ARCHITECTURE.md, "Latching"):
//
//   - Table: the table map and each table's column set are copy-on-write
//     snapshots behind atomic pointers, so a select resolves its column with
//     two loads and takes no lock (see Table). Engine.mu is the table map's
//     writers' lock (CreateTable, RestoreState, CaptureState). Table.mu is
//     taken by writers only — inserts shared, deletes exclusive — so rows
//     are added to and removed from all columns atomically.
//   - Part: every shard.Part has a reader/writer latch that only the part
//     takes. The WRITE side is only for structural changes — materialising
//     the cracked copy, merging pending updates (a merge slides piece
//     positions and tombstones deletes), attaching the index's row ids, and
//     sorting or freeing the index; it is the index's structure latch. Every
//     select, cracking ones included, and every idle action the tuner calls
//     on a part takes the READ side, which admits any number of queries and
//     idle workers simultaneously.
//   - Index: under the shared part latch, work on the part's cracker index
//     is coordinated by the index's two latches (see cracker.Index): a
//     lookup or aggregate reads the crack tree under its shared tree latch,
//     whatever the number of pieces it spans; a crack holds only the latch
//     of the piece it partitions, and the tree latch exclusively just to
//     insert its boundaries. Concurrent selects on cracked ranges therefore
//     proceed fully in parallel, and so do cracks of different pieces.
//
// Idle refinement is preemptible at action granularity: every select and
// write holds the idle pool's load gate (package loadgate) while it runs,
// and each worker claims one action, takes a step token from that gate —
// granted only while nothing holds it — and yields immediately if a
// statement arrived (package idle). The holistic tuner makes
// concurrent claims useful by sharding its action queue with atomic
// ownership flags (package core); every shard.Part registers as its own
// queue shard, so a pool of workers fans out across column shards instead
// of convoying on one latch, and idle refinement drains N shards of one
// column concurrently during a traffic gap.
//
// There is one gate per deployment. In process it is the pool's own; behind
// the network server (internal/server) SetLoadGate swaps in the server's,
// which also holds every request from admission to response, so no
// refinement step starts while any request is queued or in flight. Either
// way traffic gaps ramp the pool up (see package idle and package loadgate).
package engine

import (
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"holistic/internal/core"
	"holistic/internal/idle"
	"holistic/internal/loadgate"
	"holistic/internal/shard"
)

// Errors returned by catalog operations.
var (
	ErrNoTable        = errors.New("engine: no such table")
	ErrNoColumn       = errors.New("engine: no such column")
	ErrTableExists    = errors.New("engine: table already exists")
	ErrColumnExists   = errors.New("engine: column already exists")
	ErrLengthMismatch = errors.New("engine: column length does not match table")
)

// Config configures an Engine.
type Config struct {
	// Strategy is the indexing approach applied to all selects.
	Strategy Strategy
	// Seed makes randomised tuning reproducible. With IdleWorkers > 1 the
	// set of idle cracks per window is still seed-derived but their
	// interleaving across workers is scheduler-dependent; use IdleWorkers=1
	// for bit-identical runs.
	Seed uint64
	// TargetPieceSize: see core.Config. <= 0 selects the cost-model default.
	TargetPieceSize int
	// AutoIdle starts the background idle worker pool (holistic only). The
	// experiments use manual injection instead, like the paper.
	AutoIdle bool
	// IdleWorkers is the size of the automatic idle worker pool: how many
	// goroutines pull refinement actions concurrently during idle time.
	// <= 0 selects GOMAXPROCS — one refinement stream per core.
	IdleWorkers int
	// Shards splits every column into this many striped parts, each with
	// its own cracker index, latch and idle action queue; large selects
	// fan out one goroutine per shard and merge. <= 1 keeps one part per
	// column (the pre-sharding behaviour). See package shard.
	Shards int
}

// Result is the outcome of one select: the projection's cardinality and sum
// (a checksum equivalent across strategies) plus the query-visible time.
type Result struct {
	Count   int
	Sum     int64
	Elapsed time.Duration
}

// Engine is the kernel. All exported methods are safe for concurrent use.
type Engine struct {
	cfg Config

	// tables is the catalog's table map, copy-on-write like Table.cat: a
	// statement resolves its table with one load. mu is the writers' lock:
	// CreateTable and RestoreState republish the map under it, and
	// CaptureState holds it so a checkpoint's cut is ordered against a
	// logged CREATE TABLE.
	mu     sync.Mutex
	tables atomic.Pointer[map[string]*Table] // never nil

	// The strategy's Table 1 row, read once by New, becomes these mechanisms;
	// nothing else in the engine looks at the strategy. run answers a part
	// the probe declined: a crack with incremental indexing, a scan without.
	// Idle time during the workload builds the tuner and its idle pool with
	// incremental indexing, the online review without.
	run    func(p *shard.Part, lo, hi, vis int64) (int, int64)
	online *onlineReview
	tuner  *core.Tuner
	runner *idle.Runner

	// wlog, when attached (SetWriteLog), is the durability hook: every
	// mutation is logged through it before being acknowledged. Set once at
	// boot, before the engine serves traffic.
	wlog WriteLog
}

// New builds an engine with the given configuration, deriving its mechanisms
// from cfg.Strategy's row of Table 1 (Strategy.Capabilities).
func New(cfg Config) *Engine {
	e := &Engine{cfg: cfg, run: (*shard.Part).ScanCountSumAt}
	e.tables.Store(&map[string]*Table{})
	caps := cfg.Strategy.Capabilities()
	if caps.IncrementalIndexing {
		e.run = (*shard.Part).CrackedSelectAt
	}
	switch {
	case caps.IdleTimeDuring && !caps.IncrementalIndexing:
		e.online = newOnlineReview()
	case caps.IdleTimeDuring:
		e.tuner = core.NewTuner(core.Config{
			TargetPieceSize: cfg.TargetPieceSize,
			Seed:            cfg.Seed,
		}, nil)
		e.runner = idle.NewRunner(func() bool {
			// One auction step. Only a step that actually worked counts as an
			// action; a contended or exhausted attempt ends this worker's
			// burst (the pool retries on the next idle tick).
			_, res := e.tuner.TryStep()
			return res == core.StepWorked
		}, cfg.IdleWorkers)
		if cfg.AutoIdle {
			e.runner.Start()
		}
	}
	return e
}

// Close stops background workers. The engine remains usable for queries.
func (e *Engine) Close() {
	if e.runner != nil {
		e.runner.Stop()
	}
}

// Strategy returns the engine's indexing strategy.
func (e *Engine) Strategy() Strategy { return e.cfg.Strategy }

// idleWorkers resolves Config.IdleWorkers to the effective pool width.
func (e *Engine) idleWorkers() int {
	if e.cfg.IdleWorkers > 0 {
		return e.cfg.IdleWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// shardConfig derives the per-column sharding configuration.
func (e *Engine) shardConfig() shard.Config {
	return shard.Config{Shards: e.Shards()}
}

// Shards returns the effective per-column shard count.
func (e *Engine) Shards() int {
	if e.cfg.Shards < 1 {
		return 1
	}
	return e.cfg.Shards
}

// Tuner exposes the holistic tuner for introspection (nil for other
// strategies).
func (e *Engine) Tuner() *core.Tuner { return e.tuner }

// RegisterAux adds a maintenance action (e.g. the checkpointer) to the
// holistic tuner's auction, so it runs on the idle pool, ranked against
// crack and merge refinements and gated by the load gate. No-op for
// strategies without a tuner — such engines checkpoint only on shutdown.
func (e *Engine) RegisterAux(a core.AuxAction) {
	if e.tuner != nil {
		e.tuner.RegisterAux(a)
	}
}

// SetLoadGate replaces the idle pool's own load gate with g, which the
// engine's selects and writes then hold too: while g reports statements in
// flight the pool fully yields, and every refinement step takes an atomic
// token from g so it can never start against live traffic. The network
// server calls this so that idleness becomes an emergent property of client
// traffic. Call once at boot, before the engine serves any traffic (like
// SetWriteLog). No-op for strategies without an idle pool.
func (e *Engine) SetLoadGate(g *loadgate.Gate) {
	if e.runner != nil {
		e.runner.SetGate(g)
	}
}

// AutoIdleActions returns how many refinement actions the automatic idle
// worker pool has executed (zero for strategies without one). Manual
// IdleActions windows are not counted: that path drives the tuner's
// RunActionsParallel directly and never passes through the runner, so the
// runner's action counter is auto-only from the engine's point of view.
func (e *Engine) AutoIdleActions() int64 {
	if e.runner == nil {
		return 0
	}
	return e.runner.Actions()
}

// writeBegin holds the idle pool's load gate for one write — idle workers
// yield and no new refinement step starts until the write completes — and
// returns the matching release. Strategies without an idle pool get a no-op
// pair.
func (e *Engine) writeBegin() func() {
	if e.runner == nil {
		return func() {}
	}
	g := e.runner.Gate()
	g.Hold()
	return g.Release
}

// tableList returns the catalog's tables. It takes no lock: the table map
// and each table's column set are copy-on-write snapshots.
func (e *Engine) tableList() []*Table {
	return slices.Collect(maps.Values(*e.tables.Load()))
}

// addTableLocked republishes the table map with t in it. The caller holds
// e.mu.
func (e *Engine) addTableLocked(t *Table) {
	next := maps.Clone(*e.tables.Load())
	next[t.name] = t
	e.tables.Store(&next)
}

// MergePending force-drains every table's ingest queues (see
// Table.MergePending) and returns the operations applied. Quiesce helper
// for validation and checkpoints.
func (e *Engine) MergePending() int {
	total := 0
	for _, t := range e.tableList() {
		total += t.MergePending()
	}
	return total
}

// CreateTable registers a new, empty table.
func (e *Engine) CreateTable(name string) (*Table, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := (*e.tables.Load())[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrTableExists, name)
	}
	if e.wlog != nil {
		if err := e.wlog.LogCreateTable(name); err != nil {
			return nil, err
		}
	}
	t := newTable(name, e)
	e.addTableLocked(t)
	return t, nil
}

// Table returns a table by name, with one load and no lock.
func (e *Engine) Table(name string) (*Table, error) {
	t, ok := (*e.tables.Load())[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return t, nil
}

// column resolves a column reference.
func (e *Engine) column(table, col string) (*shard.Column, error) {
	t, err := e.Table(table)
	if err != nil {
		return nil, err
	}
	return t.column(col)
}

// BuildFullIndex sorts the column's index to completion on every part and
// returns the wall time the build took. The per-shard builds run
// concurrently, so a multi-core box pays roughly one shard's sort time.
// This is the offline-indexing primitive: the harness calls it during
// modelled a-priori idle time, and charges any uncovered remainder to the
// first query, as the paper does.
func (e *Engine) BuildFullIndex(table, col string) (time.Duration, error) {
	sc, err := e.column(table, col)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	sc.BuildSorted()
	return time.Since(start), nil
}

// DropFullIndex frees the column's full index, if any: its parts answer by
// scans, or by cracks that materialise a fresh copy, again.
func (e *Engine) DropFullIndex(table, col string) error {
	sc, err := e.column(table, col)
	if err != nil {
		return err
	}
	sc.DropSorted()
	return nil
}

// IdleActions manually injects an idle window of up to n refinement
// actions, the paper's experimental protocol ("idle time is the time needed
// to apply X random index refinement actions"). The window is spread over
// Config.IdleWorkers goroutines (default GOMAXPROCS), so on a multi-core
// box the same X actions take a fraction of the wall-clock idle time; set
// IdleWorkers to 1 for the paper's serial protocol and bit-reproducible
// action sequences. It returns the actions performed and the elements they
// touched. With the online review it instead ends the epoch and reviews the
// design now, returning the indexes built or dropped; an engine with neither
// tuner nor review cannot exploit idle time and returns zeros — the Scan,
// Offline and Adaptive rows of Table 1.
func (e *Engine) IdleActions(n int) (actions int, work int64) {
	if e.tuner != nil {
		return e.tuner.RunActionsParallel(n, e.idleWorkers())
	}
	if e.online != nil {
		return e.review(e.online.take()), 0
	}
	return 0, 0
}

// SeedWorkloadHint injects a-priori workload knowledge for the holistic
// tuner: weight synthetic queries on the column, one observation its
// shards share (a range query touches all of them). No-op for other
// strategies.
func (e *Engine) SeedWorkloadHint(table, col string, weight int) error {
	sc, err := e.column(table, col)
	if err != nil {
		return err
	}
	if e.tuner != nil {
		e.tuner.SeedWorkload(sc.Name(), weight)
	}
	return nil
}

// PieceStats reports the physical state of a column's cracker indexes
// aggregated across its shards: (pieces, avgPieceSize). A single-shard
// column never cracked reports (1, n); with S shards each uncracked part
// counts as one piece.
func (e *Engine) PieceStats(table, col string) (pieces int, avg float64, err error) {
	sc, e2 := e.column(table, col)
	if e2 != nil {
		return 0, 0, e2
	}
	pieces, avg = sc.PieceStats()
	return pieces, avg, nil
}
