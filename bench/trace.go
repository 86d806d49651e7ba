package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"holistic/internal/costmodel"
	"holistic/internal/cracker"
	"holistic/internal/scan"
	"holistic/internal/sortindex"
	"holistic/internal/wal"
)

// span is one timed call into a layer. Spans of one statement share
// stmt_seq; parent is the span that caused this one, or -1.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Seq    int32  `json:"stmt_seq"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) open(name string, parent, seq int32) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Seq: seq, Name: name, Start: t.now()})
	return id
}

func (t *tracer) close(id int32) { t.spans[id].End = t.now() }

func (t *tracer) add(name string, parent, seq int32, start, end int64) {
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Seq: seq, Name: name, Start: start, End: end})
}

// spansPerStmt is the most spans one statement leaves on rung r: its own,
// plus the calls timed below it (sql: Parse alone; shard: fan-out, one per
// part, bookkeeping loop; kernel: one crack per part, bookkeeping loop).
func spansPerStmt(r rung) int {
	switch r {
	case rungSQL:
		return 2
	case rungShard:
		return 3 + loadShards
	case rungKernel:
		return 2 + loadShards
	default:
		return 1
	}
}

// ladder lists the rungs a workload's traced run descends, top first.
func ladder(workload string) []rung {
	switch workload {
	case wCold:
		return []rung{rungEngine, rungShard, rungKernel}
	case wBursty:
		return []rung{rungWire, rungSQL, rungEngine, rungEngineNoLog, rungShard, rungKernel}
	default:
		return []rung{rungWire, rungSQL, rungEngine, rungShard, rungKernel}
	}
}

// layerRow is one line of the self-time table: a layer's median self time
// for one statement kind and its share of the top rung's median.
type layerRow struct {
	Kind  string  `json:"kind"`
	Layer string  `json:"layer"`
	US    float64 `json:"self_us"`
	Share float64 `json:"share"`
}

// traceResult is what `bench trace` writes.
type traceResult struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	TopRung  string             `json:"top_rung"`
	TopUS    map[string]float64 `json:"top_median_us"` // per statement kind
	SumUS    map[string]float64 `json:"self_sum_us"`
	Layers   []layerRow         `json:"layers"`
	Metrics  map[string]float64 `json:"metrics"`
	WallS    float64            `json:"wall_s"`
	Spans    []span             `json:"spans"`

	attempted, failed int
	errs              []string
	spanCap           int // spans the tracer was sized for
}

var kindNames = [...]string{"select", "insert", "delete"}

// runTrace replays the plan's one-client form once untraced at the top
// rung and once traced per rung, each on fresh identically seeded state
// with one idle worker and manual idle windows, so index work is the same
// statement for statement on every pass; then it probes the kernel rung's
// structures directly.
func runTrace(full *plan, seed uint64, scratch string) (*traceResult, error) {
	start := time.Now()
	p := full.single()
	rungs := ladder(p.workload)
	// Sized for every rung up front: a span slice that regrows copies tens
	// of MB inside the traced loops whose self times are being derived.
	perStmt := 0
	for _, r := range rungs {
		perStmt += spansPerStmt(r)
	}
	tr := newTracer(perStmt * p.statements())
	out := &traceResult{Workload: p.workload, Seed: seed, TopRung: rungs[0].String(),
		TopUS: map[string]float64{}, SumUS: map[string]float64{}, Metrics: map[string]float64{}}
	m := out.Metrics
	account := func(res *passResult) {
		out.attempted += res.attempted
		out.failed += res.failed
		out.errs = append(out.errs, res.errs...)
	}

	plain, err := runPass(p, passOpts{rung: rungs[0], idleWorkers: 1, scratch: scratch}, seed)
	if err != nil {
		return nil, err
	}
	account(plain)
	runMetrics(p, plain, m)
	if len(plain.mergeNS) > 0 {
		m["shard.merge_step_us"] = usOf(medianNS(plain.mergeNS))
	}
	untraced := medianNS(plain.rec.pooled(kSelect))

	for _, r := range rungs {
		o := passOpts{rung: r, idleWorkers: 1, tr: tr, scratch: scratch}
		if r == rungKernel {
			o.after = func(b *backend) { probeWarmIndex(b, p, m) }
		}
		res, err := runPass(p, o, seed)
		if err != nil {
			return nil, fmt.Errorf("rung %s: %w", r, err)
		}
		account(res)
		if r == rungs[0] {
			traced := medianNS(res.rec.pooled(kSelect))
			m["trace.overhead_pct"] = 100 * float64(traced-untraced) / float64(untraced)
		}
	}
	out.Spans, out.spanCap = tr.spans, perStmt*p.statements()
	out.deriveLayers(p)
	probeCold(p, m)
	if p.workload == wBursty {
		if err := probeDurable(p, scratch, m); err != nil {
			return nil, err
		}
	}
	out.WallS = time.Since(start).Seconds()
	return out, nil
}

// durations groups span durations by "parent-name/name" (top-level spans
// by their own name) and statement.
func durations(spans []span) map[string]map[int32][]int64 {
	out := map[string]map[int32][]int64{}
	for _, s := range spans {
		key := s.Name
		if s.Parent >= 0 {
			key = spans[s.Parent].Name + "/" + s.Name
		}
		if out[key] == nil {
			out[key] = map[int32][]int64{}
		}
		out[key][s.Seq] = append(out[key][s.Seq], s.End-s.Start)
	}
	return out
}

// deriveLayers turns spans into the self-time table. A layer's self time
// is its rung's span minus the rung below for the same statement; where a
// statement fans out, the slowest part stands for the rung, because that
// is what the statement waited for.
func (t *traceResult) deriveLayers(p *plan) {
	d := durations(t.Spans)
	kindOf := map[int32]stmtKind{}
	for _, ph := range p.phases {
		for _, s := range ph[0] {
			kindOf[s.seq] = s.kind
		}
	}
	one := func(key string, seq int32) (int64, bool) {
		v := d[key][seq]
		if len(v) == 0 {
			return 0, false
		}
		return slices.Max(v), true
	}
	// diff is the median over statements of kind k of a - b - c..., taken
	// statement by statement.
	diff := func(k stmtKind, keys ...string) (float64, bool) {
		var xs []int64
		for seq := range d[keys[0]] {
			if kindOf[seq] != k {
				continue
			}
			x, _ := one(keys[0], seq)
			ok := true
			for _, key := range keys[1:] {
				y, has := one(key, seq)
				ok = ok && has
				x -= y
			}
			if ok {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return 0, false
		}
		return usOf(medianNS(xs)), true
	}
	m := t.Metrics
	set := func(name string, k stmtKind, keys ...string) {
		if v, ok := diff(k, keys...); ok {
			m[name] = v
		}
	}
	set("server.self_us", kSelect, "wire", "sql")
	set("sqlmini.parse_us", kSelect, "sqlmini.parse")
	set("sqlmini.self_us", kSelect, "sql", "engine")
	set("engine.select_us", kSelect, "engine")
	set("engine.self_us", kSelect, "engine", "shard/shard.fanout")
	set("engine.insert_us", kInsert, "engine")
	set("engine.delete_us", kDelete, "engine")
	set("engine.insert_nolog_us", kInsert, "engine_nolog")
	set("engine.delete_nolog_us", kDelete, "engine_nolog")
	set("core.note_boost_us", kSelect, "shard/core.note_boost")
	set("shard.fanout_us", kSelect, "shard/shard.fanout")
	set("shard.fanout_overhead_us", kSelect, "shard/shard.fanout", "shard.fanout/shard.part")
	set("cracker.crack_us", kSelect, "kernel/cracker.crack")
	var parts []int64
	for seq, v := range d["shard.fanout/shard.part"] {
		if kindOf[seq] == kSelect {
			parts = append(parts, v...)
		}
	}
	if len(parts) > 0 {
		m["shard.part_us"] = usOf(medianNS(parts))
	}

	top := t.TopRung
	row := func(k stmtKind, layer string, keys ...string) {
		v, ok := diff(k, keys...)
		if !ok {
			return
		}
		kind := kindNames[k]
		if _, seen := t.TopUS[kind]; !seen {
			t.TopUS[kind], _ = diff(k, top)
		}
		t.SumUS[kind] += v
		t.Layers = append(t.Layers, layerRow{Kind: kind, Layer: layer, US: v, Share: v / t.TopUS[kind]})
	}
	if top == "wire" {
		row(kSelect, "server", "wire", "sql")
		row(kSelect, "sqlmini", "sql", "engine")
	}
	row(kSelect, "engine", "engine", "shard/shard.fanout", "shard/core.note_boost")
	row(kSelect, "core", "shard/core.note_boost")
	row(kSelect, "shard", "shard/shard.fanout", "kernel/cracker.crack")
	row(kSelect, "cracker", "kernel/cracker.crack")
	for _, k := range []stmtKind{kInsert, kDelete} {
		row(k, "server", "wire", "sql")
		row(k, "sqlmini", "sql", "engine")
		row(k, "wal+snapshot", "engine", "engine_nolog")
		row(k, "engine", "engine_nolog", "shard")
		row(k, "shard+updates", "shard")
	}
}

// sample picks up to n of the plan's measured selects, evenly spaced.
func sample(p *plan, n int) []*stmt {
	var all []*stmt
	for _, ph := range p.phases {
		for i := range ph[0] {
			if s := &ph[0][i]; s.kind == kSelect && s.col == 0 {
				all = append(all, s)
			}
		}
	}
	if len(all) <= n {
		return all
	}
	out := make([]*stmt, n)
	for i := range out {
		out[i] = all[i*len(all)/n]
	}
	return out
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int64

// probeWarmIndex times the read-only path on the kernel rung's warmed
// cracker indexes: every sampled range was queried before, so LookupRange
// finds both boundaries and nothing is reorganised.
func probeWarmIndex(b *backend, p *plan, m map[string]float64) {
	parts := b.cols[0].Parts()
	var ns []int64
	var pieces []float64
	for _, s := range sample(p, p.sz.probeQueries) {
		t0 := time.Now()
		found := true
		for _, part := range parts {
			part.RLock()
			ix := part.Cracked()
			from, to, ok := ix.LookupRange(s.lo, s.hi)
			if ok {
				_, sum := ix.CountSumConcurrent(from, to)
				sink += sum
			}
			part.RUnlock()
			found = found && ok
		}
		if found {
			ns = append(ns, int64(time.Since(t0)))
		}
	}
	for _, s := range sample(p, 64) {
		n := 0.0
		for _, part := range parts {
			if avg := part.RangePieceAvg(s.lo, s.hi); avg > 0 {
				c, _ := part.CrackedSelect(s.lo, s.hi)
				n += float64(c) / avg
			}
		}
		pieces = append(pieces, n)
	}
	if len(ns) > 0 {
		m["cracker.lookup_us"] = usOf(medianNS(ns))
	}
	m["cracker.pieces_per_select"] = median(pieces)
}

// probeCold times the kernels the paper's cost model is written in, on the
// workload's own base column: first crack of a fresh index, a full scan
// (T_scan) and a full sort (Time_sort) with its lookup.
func probeCold(p *plan, m map[string]float64) {
	vals := p.cols[0]
	rows := make([]uint32, len(vals))
	for i := range rows {
		rows[i] = uint32(i)
	}
	first := sample(p, 1)[0]

	ix := cracker.New(slices.Clone(vals), slices.Clone(rows))
	ix.SetRadixMinPiece(costmodel.DefaultRadixMinPiece)
	t0 := time.Now()
	ix.CrackRange(first.lo, first.hi)
	m["cracker.first_touch_ms"] = float64(time.Since(t0)) / 1e6

	var scans []int64
	for i := 0; i < 5; i++ {
		t0 = time.Now()
		_, sum := scan.CountSum(vals, first.lo, first.hi)
		sink += sum
		scans = append(scans, int64(time.Since(t0)))
	}
	m["scan.ns_per_row"] = float64(medianNS(scans)) / float64(len(vals))

	t0 = time.Now()
	sx := sortindex.Build(slices.Clone(vals), rows)
	m["sortindex.build_ms"] = float64(time.Since(t0)) / 1e6
	var looks []int64
	for _, s := range sample(p, p.sz.probeQueries) {
		t0 = time.Now()
		from, to := sx.Range(s.lo, s.hi)
		_, sum := sx.CountSum(from, to)
		sink += sum
		looks = append(looks, int64(time.Since(t0)))
	}
	m["sortindex.lookup_us"] = usOf(medianNS(looks))
}

// probeDurable times the log alone: appends of a record the size of one
// insertRows-row insert of this table, fsync on every append.
func probeDurable(p *plan, scratch string, m map[string]float64) error {
	dir, err := os.MkdirTemp(scratch, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, _, err := wal.Open(wal.OSFS{}, filepath.Join(dir, "probe.log"), wal.Policy{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	defer log.Close()
	var ins *stmt
	for i := range p.phases[0][0] {
		if s := &p.phases[0][0][i]; s.kind == kInsert {
			ins = s
			break
		}
	}
	if ins == nil {
		return nil
	}
	// The store's insert record: opcode, table, first row id, row and
	// column counts, then the values — see snapshot.EncodeRecord.
	payload := make([]byte, 1+1+len(p.table)+4+1+1+8*len(ins.rows)*len(ins.rows[0]))
	var ns []int64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := log.Append(payload); err != nil {
			return err
		}
		ns = append(ns, int64(time.Since(t0)))
	}
	m["wal.append_us"] = usOf(medianNS(ns))
	return nil
}
