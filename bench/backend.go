package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"holistic/internal/core"
	"holistic/internal/cracker"
	"holistic/internal/engine"
	"holistic/internal/loadgate"
	"holistic/internal/scan"
	"holistic/internal/server"
	"holistic/internal/shard"
	"holistic/internal/snapshot"
	"holistic/internal/sqlmini"
	"holistic/internal/wal"
)

// rung is an entry depth into the kernel. Untraced runs enter at the top
// rung of their workload (wire, or engine for cold_crack); a traced run
// replays the same stream once per rung on identically seeded fresh state.
type rung int

const (
	rungWire rung = iota
	rungSQL
	rungEngine
	rungEngineNoLog // bursty only: the engine rung without a WriteLog attached
	rungShard
	rungKernel
)

var rungNames = [...]string{"wire", "sql", "engine", "engine_nolog", "shard", "kernel"}

func (r rung) String() string { return rungNames[r] }

func (r rung) hasEngine() bool { return r <= rungEngineNoLog }

type backendConfig struct {
	rung        rung
	seed        uint64
	idleWorkers int
	autoIdle    bool   // background idle pool, as holisticd runs it
	dir         string // non-empty: snapshot.Store with fsync=always in dir
}

// backend is one freshly built kernel state entered at cfg.rung.
type backend struct {
	cfg  backendConfig
	plan *plan
	tr   *tracer // nil: untraced, and always nil during set-up
	cur  int32   // the open statement span sub-spans hang off

	eng     *engine.Engine
	tab     *engine.Table
	store   *snapshot.Store
	gate    *loadgate.Gate
	pinned  bool
	srv     *server.Server
	clients []*server.Client

	// shard and kernel rungs: what engine.Table and engine.Select do,
	// rebuilt here from the layers below them.
	cols    []*shard.Column
	partIdx map[*shard.Part]int
	tuner   *core.Tuner
	nextRow uint32
	partNS  [][2]int64 // per-part start/end of the statement in flight
}

func engineConfig(cfg backendConfig) engine.Config {
	return engine.Config{
		Strategy:        engine.StrategyHolistic,
		Seed:            cfg.seed,
		TargetPieceSize: targetPiece,
		AutoIdle:        cfg.autoIdle,
		IdleWorkers:     cfg.idleWorkers,
		Shards:          loadShards,
	}
}

func storeConfig() snapshot.Config {
	return snapshot.Config{
		Policy:   wal.Policy{Sync: wal.SyncAlways},
		Shards:   loadShards,
		Strategy: engine.StrategyHolistic.String(),
	}
}

// build wires a kernel the way cmd/holisticd does — engine, optional
// store attached before the load so the load is logged, load gate, server
// on a loopback port the OS picks — down to the depth cfg.rung needs. cols
// is adopted. On the wire rung the gate stays pinned busy until unpin, so
// the idle pool cannot refine anything before measured traffic starts.
func build(p *plan, cfg backendConfig, cols [][]int64) (*backend, error) {
	b := &backend{cfg: cfg, plan: p}
	if !cfg.rung.hasEngine() {
		b.tuner = core.NewTuner(core.Config{TargetPieceSize: targetPiece, Seed: cfg.seed}, nil)
		b.partIdx = map[*shard.Part]int{}
		for i, vals := range cols {
			lo, hi, _ := scan.MinMax(vals)
			c, err := shard.NewColumn(p.table+"."+p.colNames[i], vals, shard.Config{Shards: loadShards, Seed: cfg.seed})
			if err != nil {
				return nil, err
			}
			for j, part := range c.Parts() {
				b.partIdx[part] = j
				b.tuner.Register(part, lo, hi)
			}
			b.cols = append(b.cols, c)
			b.nextRow = uint32(len(vals))
		}
		b.partNS = make([][2]int64, loadShards)
		return b, nil
	}
	b.eng = engine.New(engineConfig(cfg))
	if cfg.dir != "" {
		store, _, err := snapshot.Open(nil, cfg.dir, b.eng, storeConfig())
		if err != nil {
			b.eng.Close()
			return nil, err
		}
		b.store = store
		b.eng.SetWriteLog(store)
	}
	tab, err := b.eng.CreateTable(p.table)
	if err != nil {
		b.close()
		return nil, err
	}
	b.tab = tab
	for i, vals := range cols {
		if err := tab.AddColumnFromSlice(p.colNames[i], vals); err != nil {
			b.close()
			return nil, err
		}
	}
	if cfg.rung != rungWire {
		return b, nil
	}
	b.gate = loadgate.New()
	b.gate.Begin()
	b.pinned = true
	b.srv = server.New(server.Config{Engine: b.eng, Gate: b.gate})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.close()
		return nil, err
	}
	go b.srv.Serve(lis)
	for i := 0; i < p.clients; i++ {
		c, err := server.Dial(lis.Addr().String())
		if err != nil {
			b.close()
			return nil, err
		}
		b.clients = append(b.clients, c)
	}
	return b, nil
}

func (b *backend) unpin() {
	if b.pinned {
		b.pinned = false
		b.gate.End()
	}
}

// stopServing drains and stops the front end and closes the log without a
// final checkpoint, leaving the data directory as a crash after the last
// acknowledged statement would.
func (b *backend) stopServing() error {
	var errs []error
	for _, c := range b.clients {
		c.Close()
	}
	b.clients = nil
	if b.srv != nil {
		b.unpin()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, b.srv.Shutdown(ctx))
		cancel()
		b.srv = nil
	}
	if b.store != nil {
		errs = append(errs, b.store.Close())
		b.store = nil
	}
	return errors.Join(errs...)
}

func (b *backend) close() {
	b.stopServing()
	if b.eng != nil {
		b.eng.Close()
	}
}

// exec issues one statement at the backend's rung and returns what the
// kernel answered: (count, sum) for a select, rows affected for a write.
func (b *backend) exec(client int, s *stmt) (int, int64, error) {
	switch b.cfg.rung {
	case rungWire:
		resp, err := b.clients[client].Exec(s.text)
		if err != nil {
			return 0, 0, err
		}
		if !resp.OK {
			return 0, 0, errors.New(resp.Error)
		}
		return resp.Count, resp.Sum, nil
	case rungSQL:
		res, err := sqlmini.Run(b.eng, s.text)
		if err != nil {
			return 0, 0, err
		}
		return res.Count, res.Sum, nil
	case rungEngine, rungEngineNoLog:
		switch s.kind {
		case kSelect:
			res, err := b.eng.Select(b.plan.table, b.plan.colNames[s.col], s.lo, s.hi)
			return res.Count, res.Sum, err
		case kInsert:
			_, err := b.tab.InsertRows(s.rows)
			return len(s.rows), 0, err
		default:
			n, err := b.tab.DeleteWhereIn(b.plan.colNames[0], s.vals)
			return n, 0, err
		}
	default:
		switch s.kind {
		case kSelect:
			if b.cfg.rung == rungKernel && s.hi <= insertBase {
				c, sum := b.kernelSelect(s)
				return c, sum, nil
			}
			c, sum := b.shardSelect(s)
			return c, sum, nil
		case kInsert:
			for _, row := range s.rows {
				g := b.nextRow
				b.nextRow++
				for i, c := range b.cols {
					c.AppendAt(g, row[i])
				}
			}
			return len(s.rows), 0, nil
		default:
			n := 0
			for _, v := range s.vals {
				if row, ok := b.cols[0].FirstLive(v); ok {
					for _, c := range b.cols {
						c.DeleteRow(row)
					}
					n++
				}
			}
			return n, 0, nil
		}
	}
}

// preTrace records what a traced statement measures beside its own span.
// On the sql rung that is Parse alone: Run parses again inside the span,
// so this is the parser's share of it.
func (b *backend) preTrace(s *stmt) {
	if b.cfg.rung == rungSQL {
		id := b.tr.open("sqlmini.parse", -1, s.seq)
		sqlmini.Parse(s.text)
		b.tr.close(id)
	}
}

// noteAndBoost is engine.Select's bookkeeping loop: every part records the
// query and may spend a few boost cracks on a hot range.
func (b *backend) noteAndBoost(col *shard.Column, s *stmt) {
	var id int32
	if b.tr != nil {
		id = b.tr.open("core.note_boost", b.cur, s.seq)
	}
	for _, p := range col.Parts() {
		b.tuner.NoteQuery(p.Name(), s.lo, s.hi)
		p.RLock()
		if ix := p.Cracked(); ix != nil {
			b.tuner.MaybeBoost(ix, p.Name(), s.lo, s.hi)
		}
		p.RUnlock()
	}
	if b.tr != nil {
		b.tr.close(id)
	}
}

// shardSelect is engine.Select below the catalog: fan out CrackedSelect
// over the parts, then the bookkeeping loop.
func (b *backend) shardSelect(s *stmt) (int, int64) {
	col := b.cols[s.col]
	if b.tr == nil {
		count, sum := col.FanOutCountSum(func(p *shard.Part) (int, int64) { return p.CrackedSelect(s.lo, s.hi) })
		b.noteAndBoost(col, s)
		return count, sum
	}
	fan := b.tr.open("shard.fanout", b.cur, s.seq)
	count, sum := col.FanOutCountSum(func(p *shard.Part) (int, int64) {
		i := b.partIdx[p]
		b.partNS[i][0] = b.tr.now()
		c, sm := p.CrackedSelect(s.lo, s.hi)
		b.partNS[i][1] = b.tr.now()
		return c, sm
	})
	b.tr.close(fan)
	for _, ns := range b.partNS {
		b.tr.add("shard.part", fan, s.seq, ns[0], ns[1])
	}
	b.noteAndBoost(col, s)
	return count, sum
}

// kernelSelect answers a select by calling each part's cracker index
// directly, one part after the other, skipping Part.CrackedSelect's latch,
// merge-epoch check and pending-update combine. Valid only for ranges no
// pending insert can fall in (every base-range select).
func (b *backend) kernelSelect(s *stmt) (int, int64) {
	col := b.cols[s.col]
	count, sum := 0, int64(0)
	for _, p := range col.Parts() {
		p.RLock()
		ix := p.Cracked()
		p.RUnlock()
		if ix == nil {
			p.Lock()
			ix = p.CrackIndex()
			p.Unlock()
		}
		p.RLock()
		var id int32
		if b.tr != nil {
			id = b.tr.open("cracker.crack", b.cur, s.seq)
		}
		c, sm := crackSelect(ix, s.lo, s.hi)
		if b.tr != nil {
			b.tr.close(id)
		}
		p.RUnlock()
		count += c
		sum += sm
	}
	b.noteAndBoost(col, s)
	return count, sum
}

func crackSelect(ix *cracker.Index, lo, hi int64) (int, int64) {
	from, to := ix.CrackRangeConcurrent(lo, hi)
	return ix.CountSumConcurrent(from, to)
}

// idle runs a manual idle window of up to n refinement actions.
func (b *backend) idle(n int) (actions int, work int64) {
	if b.eng != nil {
		return b.eng.IdleActions(n)
	}
	return b.tuner.RunActionsParallel(n, b.cfg.idleWorkers)
}

func (b *backend) mergePending() int {
	if b.eng != nil {
		return b.eng.MergePending()
	}
	n := 0
	for _, c := range b.cols {
		n += c.MergePending()
	}
	return n
}

func (b *backend) pendingOps() int {
	if b.tab != nil {
		return b.tab.PendingOps()
	}
	n := 0
	for _, c := range b.cols {
		for _, p := range c.Parts() {
			n += p.PendingOps()
		}
	}
	return n
}

// pieceStats reports column 0's piece count and average piece size.
func (b *backend) pieceStats() (pieces int, avg float64) {
	if b.eng != nil {
		pieces, avg, _ = b.eng.PieceStats(b.plan.table, b.plan.colNames[0])
		return pieces, avg
	}
	total := 0
	for _, p := range b.cols[0].Parts() {
		n, rows := p.PieceStats()
		pieces += n
		total += rows
	}
	if pieces > 0 {
		avg = float64(total) / float64(pieces)
	}
	return pieces, avg
}

func (b *backend) tunerOf() *core.Tuner {
	if b.eng != nil {
		return b.eng.Tuner()
	}
	return b.tuner
}

// reopen recovers the data directory into a fresh engine, as a restart
// would, and answers the first select.
func reopen(p *plan, cfg backendConfig, first *stmt) (eng *engine.Engine, store *snapshot.Store, info snapshot.RecoveryInfo, openNS, firstNS int64, err error) {
	t0 := time.Now()
	eng = engine.New(engineConfig(cfg))
	store, info, err = snapshot.Open(nil, cfg.dir, eng, storeConfig())
	if err != nil {
		eng.Close()
		return nil, nil, info, 0, 0, err
	}
	eng.SetWriteLog(store)
	openNS = int64(time.Since(t0))
	res, err := eng.Select(p.table, p.colNames[first.col], first.lo, first.hi)
	firstNS = int64(time.Since(t0))
	if err == nil && (res.Count != first.wantCount || res.Sum != first.wantSum) {
		err = fmt.Errorf("after reopen [%d,%d): got %d/%d want %d/%d: acknowledged writes missing",
			first.lo, first.hi, res.Count, res.Sum, first.wantCount, first.wantSum)
	}
	return eng, store, info, openNS, firstNS, err
}
