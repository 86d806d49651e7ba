package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"

	"holistic/internal/workload"
)

type stmtKind uint8

const (
	kSelect stmtKind = iota
	kInsert
	kDelete
)

// stmt is one pre-generated statement in every form a rung needs — SQL text
// for the wire and sql rungs, decoded arguments for the rungs below — plus
// the answer the oracle expects, so nothing but the call itself happens
// between two statements of a closed loop.
type stmt struct {
	kind      stmtKind
	col       uint8 // selects: index into plan.colNames
	seq       int32 // position in the merged one-client order
	lo, hi    int64
	rows      [][]int64
	vals      []int64
	text      string
	wantCount int
	wantSum   int64
}

// plan is everything a workload feeds the kernel for one seed: base data,
// oracle, and the per-client statement streams. A plan is immutable once
// built; every repeat and every rung replays it against a fresh state.
type plan struct {
	workload string
	sz       *sizes
	table    string
	colNames []string
	cols     [][]int64 // base data; builds copy it, engines adopt the copy
	oracles  []*oracle
	clients  int
	warm     [][]stmt   // set-up statements per client (nil for cold_crack, bursty)
	phases   [][][]stmt // phases[p][client]: measured statements
	// checks[p] is issued after phase p (bursty only): the whole table's
	// count and sum per the clients' ledger of live inserted rows.
	checks []stmt
	// inserted[p] is what a select over the inserted domain answers after
	// phase p; the last one kept is what recovery must reproduce — every
	// acknowledged insert not deleted since.
	inserted []stmt
	// checkpointAfter is the phase after whose gap the bench checkpoints.
	checkpointAfter int
	// sliced: the phases are equal consecutive slices of one measured
	// phase with nothing between them (steady_range, wire_point). A
	// repeat's latency and rate metrics are then the median over slices,
	// which a short stall of the host cannot move; elsewhere they are taken
	// over the pooled phases.
	sliced bool
}

// measuredSlices is how many slices a sliced plan cuts its measured phase
// into.
const measuredSlices = 8

// slice cuts one measured phase into measuredSlices consecutive phases.
func (p *plan) slice(measured [][]stmt) {
	p.sliced = true
	for k := 0; k < measuredSlices; k++ {
		ph := make([][]stmt, len(measured))
		for c, s := range measured {
			ph[c] = s[k*len(s)/measuredSlices : (k+1)*len(s)/measuredSlices]
		}
		p.phases = append(p.phases, ph)
	}
}

// oracle answers range count/sum from a sorted copy with prefix sums.
type oracle struct {
	sorted []int64
	prefix []int64
}

func newOracle(vals []int64) *oracle {
	s := slices.Clone(vals)
	slices.Sort(s)
	p := make([]int64, len(s)+1)
	for i, v := range s {
		p[i+1] = p[i] + v
	}
	return &oracle{sorted: s, prefix: p}
}

func (o *oracle) countSum(lo, hi int64) (int, int64) {
	i := sort.Search(len(o.sorted), func(k int) bool { return o.sorted[k] >= lo })
	j := sort.Search(len(o.sorted), func(k int) bool { return o.sorted[k] >= hi })
	return j - i, o.prefix[j] - o.prefix[i]
}

// subSeed derives independent generator seeds from the one --seed
// (splitmix64 finaliser), so data, each client's stream and the engine's
// own RNG never share a sequence.
func subSeed(seed uint64, k uint64) uint64 {
	z := seed + 0x9E3779B97F4A7C15*(k+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func newRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed^0x2545F4914F6CDD1D)) }

const (
	seedData   = 1  // + column index
	seedClient = 16 // + client index
	seedEngine = 64
)

func (p *plan) selectStmt(col int, lo, hi int64) stmt {
	c, s := p.oracles[col].countSum(lo, hi)
	name := p.colNames[col]
	return stmt{
		kind: kSelect, col: uint8(col), lo: lo, hi: hi,
		text:      fmt.Sprintf("select %s from %s where %s >= %d and %s < %d", name, p.table, name, lo, name, hi),
		wantCount: c, wantSum: s,
	}
}

// rangeSelects draws n fixed-width selects at uniformly random positions of
// column col's domain [1, rows+1).
func (p *plan) rangeSelects(rng *rand.Rand, col, n int, width int64) []stmt {
	rows := int64(len(p.cols[col]))
	out := make([]stmt, n)
	for i := range out {
		lo := 1 + rng.Int64N(rows-width)
		out[i] = p.selectStmt(col, lo, lo+width)
	}
	return out
}

func newPlan(name string, sz *sizes, seed uint64) (*plan, error) {
	p := &plan{workload: name, sz: sz, table: "r", colNames: []string{"a"}, clients: loadClients}
	load := func(rows int) {
		for i := range p.colNames {
			vals := workload.UniformData(subSeed(seed, seedData+uint64(i)), rows, 1, int64(rows)+1)
			p.cols = append(p.cols, vals)
			p.oracles = append(p.oracles, newOracle(vals))
		}
	}
	switch name {
	case wCold:
		p.clients = 1
		load(sz.coldRows)
		all := p.rangeSelects(newRNG(subSeed(seed, seedClient)), 0, sz.coldQueries, int64(sz.coldRows/100))
		for len(all) > 0 {
			n := min(sz.coldWindow, len(all))
			p.phases = append(p.phases, [][]stmt{all[:n]})
			all = all[n:]
		}
	case wSteady:
		load(sz.steadyRows)
		width := int64(sz.steadyRows / 100)
		measured := make([][]stmt, p.clients)
		for c := 0; c < p.clients; c++ {
			rng := newRNG(subSeed(seed, seedClient+uint64(c)))
			p.warm = append(p.warm, p.rangeSelects(rng, 0, sz.steadyWarm/p.clients, width))
			measured[c] = p.rangeSelects(rng, 0, sz.steadyMeasured/p.clients, width)
		}
		p.slice(measured)
	case wPoint:
		load(sz.pointRows)
		p.genPoint(seed)
	case wBursty:
		p.table, p.colNames = "t", []string{"a", "b"}
		load(sz.burstRows)
		p.genBursty(seed)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	p.number()
	return p, nil
}

// genPoint builds wire_point. Measured selects are [g, g+width) for g on a
// grid of pointGrid points. Set-up issues every one of those ranges once
// and then [v, v+1) for every other integer v inside it, which leaves a
// crack boundary at every integer of every range: no piece there holds two
// distinct values, so neither a select nor a hot-range boost can split
// anything in the measured phase and the piece count stays exactly put.
func (p *plan) genPoint(seed uint64) {
	sz := p.sz
	step := int64(sz.pointRows / sz.pointGrid)
	width := int64(sz.pointWidth)
	order := newRNG(subSeed(seed, seedClient+8)).Perm(sz.pointGrid)
	p.warm = make([][]stmt, p.clients)
	for i, g := range order {
		c := i % p.clients
		base := 1 + int64(g)*step
		p.warm[c] = append(p.warm[c], p.selectStmt(0, base, base+width))
		for v := base; v < base+width; v += 2 {
			p.warm[c] = append(p.warm[c], p.selectStmt(0, v, v+1))
		}
	}
	measured := make([][]stmt, p.clients)
	for c := range measured {
		rng := newRNG(subSeed(seed, seedClient+uint64(c)))
		measured[c] = make([]stmt, sz.pointMeasured)
		for i := range measured[c] {
			base := 1 + int64(rng.IntN(sz.pointGrid))*step
			measured[c][i] = p.selectStmt(0, base, base+width)
		}
	}
	p.slice(measured)
}

// insertBase starts the inserted-value domain far above the base data's
// [1, rows+1), so base-range selects stay checkable against the static
// oracle whatever the writers do. Client c's k-th inserted value is
// insertBase + c<<32 + k: unique, so a delete of it removes exactly one row.
const insertBase = int64(1) << 40

// genBursty builds bursty_rw_durable: per client and burst, burstStmts
// statements at 70% selects (0.1% of either column), 25% inserts of
// insertRows rows, 5% IN-deletes of deleteVals values that client inserted
// earlier and has not deleted yet.
func (p *plan) genBursty(seed uint64) {
	sz := p.sz
	width := max(int64(sz.burstRows/1000), 1)
	type ledger struct {
		live []int64
		next int64
	}
	rngs := make([]*rand.Rand, p.clients)
	ledgers := make([]ledger, p.clients)
	for c := range rngs {
		rngs[c] = newRNG(subSeed(seed, seedClient+uint64(c)))
		ledgers[c].next = insertBase + int64(c)<<32
	}
	baseCount, baseSum := p.oracles[0].countSum(1, insertBase)
	insHi := insertBase + int64(p.clients)<<32
	var sb strings.Builder
	for b := 0; b < sz.bursts; b++ {
		phase := make([][]stmt, p.clients)
		for c := range phase {
			rng, led := rngs[c], &ledgers[c]
			phase[c] = make([]stmt, sz.burstStmts)
			for i := range phase[c] {
				r := rng.Float64()
				switch {
				case r < 0.70:
					col := rng.IntN(len(p.colNames))
					lo := 1 + rng.Int64N(int64(sz.burstRows)-width)
					phase[c][i] = p.selectStmt(col, lo, lo+width)
				case r < 0.95 || len(led.live) < sz.deleteVals:
					s := stmt{kind: kInsert, wantCount: sz.insertRows}
					sb.Reset()
					fmt.Fprintf(&sb, "insert into %s values ", p.table)
					for k := 0; k < sz.insertRows; k++ {
						v := led.next
						led.next++
						led.live = append(led.live, v)
						s.rows = append(s.rows, []int64{v, v})
						if k > 0 {
							sb.WriteString(", ")
						}
						fmt.Fprintf(&sb, "(%d, %d)", v, v)
					}
					s.text = sb.String()
					phase[c][i] = s
				default:
					s := stmt{kind: kDelete, wantCount: sz.deleteVals}
					sb.Reset()
					fmt.Fprintf(&sb, "delete from %s where a in (", p.table)
					for k := 0; k < sz.deleteVals; k++ {
						j := rng.IntN(len(led.live))
						v := led.live[j]
						led.live[j] = led.live[len(led.live)-1]
						led.live = led.live[:len(led.live)-1]
						s.vals = append(s.vals, v)
						if k > 0 {
							sb.WriteString(", ")
						}
						fmt.Fprintf(&sb, "%d", v)
					}
					sb.WriteString(")")
					s.text = sb.String()
					phase[c][i] = s
				}
			}
		}
		p.phases = append(p.phases, phase)
		liveCount, liveSum := 0, int64(0)
		for c := range ledgers {
			liveCount += len(ledgers[c].live)
			for _, v := range ledgers[c].live {
				liveSum += v
			}
		}
		check := p.selectStmt(0, 1, insHi)
		check.wantCount, check.wantSum = baseCount+liveCount, baseSum+liveSum
		p.checks = append(p.checks, check)
		ins := p.selectStmt(0, insertBase, insHi)
		ins.wantCount, ins.wantSum = liveCount, liveSum
		p.inserted = append(p.inserted, ins)
	}
	p.checkpointAfter = sz.checkpointAfter
}

// number assigns every statement its place in the merged one-client order:
// within warm-up and within each phase, clients take turns.
func (p *plan) number() {
	seq := int32(0)
	turn := func(streams [][]stmt) {
		for i := 0; ; i++ {
			any := false
			for c := range streams {
				if i < len(streams[c]) {
					streams[c][i].seq = seq
					seq++
					any = true
				}
			}
			if !any {
				return
			}
		}
	}
	turn(p.warm)
	for _, ph := range p.phases {
		turn(ph)
	}
}

// single returns the traced form of the plan: the same streams cut to the
// trace sizes and merged, in seq order, into one client's stream.
func (p *plan) single() *plan {
	sz := p.sz
	q := *p
	q.clients = 1
	merge := func(streams [][]stmt, perClient int) [][]stmt {
		var out []stmt
		for _, s := range streams {
			out = append(out, s[:min(perClient, len(s))]...)
		}
		slices.SortFunc(out, func(a, b stmt) int { return int(a.seq - b.seq) })
		return [][]stmt{out}
	}
	keepWarm, keepMeasured, keepPhases := 1<<30, 1<<30, len(p.phases)
	switch p.workload {
	case wSteady:
		keepWarm, keepMeasured = sz.traceSteadyWarm/p.clients, sz.traceSteadyMeasured/p.clients/measuredSlices
	case wPoint:
		keepMeasured = sz.tracePointMeasured / p.clients / measuredSlices
	case wBursty:
		keepPhases = min(sz.traceBursts, keepPhases)
		q.checks, q.inserted = p.checks[:keepPhases], p.inserted[:keepPhases]
		q.checkpointAfter = keepPhases / 2
	}
	if p.warm != nil {
		q.warm = merge(p.warm, keepWarm)
	}
	q.phases = nil
	for _, ph := range p.phases[:keepPhases] {
		q.phases = append(q.phases, merge(ph, keepMeasured))
	}
	return &q
}

// statements counts the plan's measured statements.
func (p *plan) statements() int {
	n := 0
	for _, ph := range p.phases {
		for _, s := range ph {
			n += len(s)
		}
	}
	return n
}
