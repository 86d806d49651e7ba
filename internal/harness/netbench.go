package harness

import (
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"holistic/internal/engine"
	"holistic/internal/loadgate"
	"holistic/internal/server"
	"holistic/internal/workload"
)

// NetBenchConfig configures the closed-loop multi-client network benchmark:
// an in-process holisticd over loopback driven by Clients concurrent
// connections through alternating busy bursts and traffic gaps — the
// client/server rendition of the paper's idle-time protocol, where gaps are
// real wall-clock quiet on the wire instead of injected action windows.
type NetBenchConfig struct {
	// N is the number of uniform rows in the single benchmark column.
	N int
	// Clients is how many concurrent client connections run closed-loop.
	Clients int
	// Bursts is how many busy/gap phases to run.
	Bursts int
	// QueriesPerBurst is how many queries EACH client issues per burst.
	QueriesPerBurst int
	// Gap is the wall-clock traffic gap between bursts.
	Gap time.Duration
	// Selectivity is the query selectivity (paper default 0.01).
	Selectivity float64
	// Seed makes data and queries reproducible.
	Seed uint64
	// TargetPieceSize: see engine.Config.
	TargetPieceSize int
	// IdleWorkers / IdleQuiet tune the engine's automatic idle pool.
	IdleWorkers int
	IdleQuiet   time.Duration
	// MaxInFlight bounds server admission (0 = server default).
	MaxInFlight int
}

func (c *NetBenchConfig) defaults() {
	if c.N <= 0 {
		c.N = 1 << 20
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Bursts <= 0 {
		c.Bursts = 4
	}
	if c.QueriesPerBurst <= 0 {
		c.QueriesPerBurst = 50
	}
	if c.Gap <= 0 {
		c.Gap = 200 * time.Millisecond
	}
	if c.Selectivity <= 0 {
		c.Selectivity = 0.01
	}
	if c.IdleQuiet <= 0 {
		c.IdleQuiet = 2 * time.Millisecond
	}
	if c.TargetPieceSize <= 0 {
		c.TargetPieceSize = 1 << 10
	}
}

// NetBurst is one busy phase's client-side view.
type NetBurst struct {
	Queries            int           // completed queries across all clients
	Elapsed            time.Duration // burst wall time
	Throughput         float64       // queries per second
	P50, P95, P99, Max time.Duration
}

// NetGap is one traffic gap's server-side harvest.
type NetGap struct {
	Duration    time.Duration
	IdleActions int64 // refinement actions completed during the gap
	StepGrants  int64 // gate tokens issued during the gap
}

// NetBenchResult is the outcome of RunNetBench.
type NetBenchResult struct {
	Config NetBenchConfig
	Bursts []NetBurst
	Gaps   []NetGap
	// WarmupActions counts idle actions that completed between server
	// start and the first burst — the pool starts harvesting the moment
	// the gate is quiet, before any client traffic exists.
	WarmupActions int64
	// BusyActions counts idle actions that completed during busy phases:
	// nonzero only because a burst's closed loop has sub-quiet lulls
	// between a response and the next request; steps never start while a
	// request is in flight (the gate guarantees it).
	BusyActions int64
	Gate        loadgate.Stats
	FinalPieces int
	FinalAvg    float64
}

// RunNetBench starts an in-process holisticd on loopback, drives it with
// Clients concurrent closed-loop connections through Bursts busy/gap
// phases, verifies every response against a serial oracle, and records
// per-burst latency percentiles plus per-gap idle refinement harvest.
func RunNetBench(cfg NetBenchConfig) (*NetBenchResult, error) {
	cfg.defaults()

	// Pin the gate busy for the whole setup (data load, oracle sort, client
	// dials): the idle pool must not converge the column before the first
	// byte of traffic, or the gaps would have nothing left to show.
	gate := loadgate.New()
	gate.Begin()
	eng := engine.New(engine.Config{
		Strategy:        engine.StrategyHolistic,
		Seed:            cfg.Seed,
		TargetPieceSize: cfg.TargetPieceSize,
		AutoIdle:        true,
		IdleQuiet:       cfg.IdleQuiet,
		IdleWorkers:     cfg.IdleWorkers,
	})
	defer eng.Close()
	eng.SetLoadGate(gate)

	vals := workload.UniformData(cfg.Seed^0xA5A5, cfg.N, 1, int64(cfg.N)+1)
	tab, err := eng.CreateTable("r")
	if err != nil {
		return nil, err
	}
	if err := tab.AddColumnFromSlice("a", append([]int64(nil), vals...)); err != nil {
		return nil, err
	}
	orc := newPrefixOracle(vals)

	srv := server.New(server.Config{Engine: eng, Gate: gate, MaxInFlight: cfg.MaxInFlight})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(lis)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	clients := make([]*server.Client, cfg.Clients)
	for i := range clients {
		c, err := server.Dial(lis.Addr().String())
		if err != nil {
			return nil, err
		}
		defer c.Close()
		clients[i] = c
	}

	res := &NetBenchResult{Config: cfg}
	res.WarmupActions = eng.AutoIdleActions() // zero unless the pin leaked
	gate.End()                                // setup done: traffic is now the only load authority
	for b := 0; b < cfg.Bursts; b++ {
		burst, err := runNetBurst(cfg, clients, orc, b)
		if err != nil {
			return nil, err
		}
		res.Bursts = append(res.Bursts, *burst)
		actionsNow := eng.AutoIdleActions()
		grantsNow := gate.Snapshot().StepGrants
		// Traffic gap: let the idle pool harvest.
		time.Sleep(cfg.Gap)
		res.Gaps = append(res.Gaps, NetGap{
			Duration:    cfg.Gap,
			IdleActions: eng.AutoIdleActions() - actionsNow,
			StepGrants:  gate.Snapshot().StepGrants - grantsNow,
		})
	}
	// Stop the idle pool before the final counters are read: a worker
	// probing for work would otherwise show up as a running step in the gate
	// snapshot. Queries (PieceStats below) still work on a closed engine.
	eng.Close()
	total := int64(0)
	for _, g := range res.Gaps {
		total += g.IdleActions
	}
	res.BusyActions = eng.AutoIdleActions() - total - res.WarmupActions

	res.Gate = gate.Snapshot()
	res.FinalPieces, res.FinalAvg, _ = eng.PieceStats("r", "a")
	return res, nil
}

// runNetBurst drives every client through one closed-loop busy phase and
// verifies each response against the oracle.
func runNetBurst(cfg NetBenchConfig, clients []*server.Client, orc *prefixOracle, burst int) (*NetBurst, error) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		lats []time.Duration
		errs []error
	)
	start := time.Now()
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *server.Client) {
			defer wg.Done()
			gen := workload.NewUniform("r", "a", 1, int64(cfg.N)+1, cfg.Selectivity,
				cfg.Seed+uint64(burst*len(clients)+ci))
			local := make([]time.Duration, 0, cfg.QueriesPerBurst)
			for i := 0; i < cfg.QueriesPerBurst; i++ {
				q := gen.Next()
				stmt := fmt.Sprintf("select a from r where a >= %d and a < %d", q.Lo, q.Hi)
				t0 := time.Now()
				count, sum, err := c.Query(stmt)
				lat := time.Since(t0)
				if err != nil {
					mu.Lock()
					errs = append(errs, fmt.Errorf("client %d: %w", ci, err))
					mu.Unlock()
					return
				}
				wantCount, wantSum := orc.countSum(q.Lo, q.Hi)
				if count != wantCount || sum != wantSum {
					mu.Lock()
					errs = append(errs, fmt.Errorf(
						"client %d diverged from oracle on [%d,%d): got %d/%d want %d/%d",
						ci, q.Lo, q.Hi, count, sum, wantCount, wantSum))
					mu.Unlock()
					return
				}
				local = append(local, lat)
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}(ci, c)
	}
	wg.Wait()
	if len(errs) > 0 {
		return nil, errs[0]
	}
	elapsed := time.Since(start)
	p50, p95, p99, max := LatencyProfile(lats)
	return &NetBurst{
		Queries:    len(lats),
		Elapsed:    elapsed,
		Throughput: float64(len(lats)) / elapsed.Seconds(),
		P50:        p50,
		P95:        p95,
		P99:        p99,
		Max:        max,
	}, nil
}

// LatencyProfile returns nearest-rank latency percentiles (p50, p95, p99)
// and the maximum. It sorts lats in place; a nil or empty slice returns
// zeros.
func LatencyProfile(lats []time.Duration) (p50, p95, p99, max time.Duration) {
	if len(lats) == 0 {
		return 0, 0, 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration { return lats[int(p*float64(len(lats)-1))] }
	return pct(0.50), pct(0.95), pct(0.99), lats[len(lats)-1]
}

// prefixOracle answers range count/sum queries from a sorted copy with
// prefix sums — the serial reference every strategy must agree with.
type prefixOracle struct {
	sorted []int64
	prefix []int64
}

func newPrefixOracle(vals []int64) *prefixOracle {
	s := append([]int64(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	p := make([]int64, len(s)+1)
	for i, v := range s {
		p[i+1] = p[i] + v
	}
	return &prefixOracle{sorted: s, prefix: p}
}

func (o *prefixOracle) countSum(lo, hi int64) (int, int64) {
	i := sort.Search(len(o.sorted), func(k int) bool { return o.sorted[k] >= lo })
	j := sort.Search(len(o.sorted), func(k int) bool { return o.sorted[k] >= hi })
	return j - i, o.prefix[j] - o.prefix[i]
}

// FormatNetBench renders the benchmark as a per-phase table plus a summary.
func FormatNetBench(res *NetBenchResult) string {
	var b strings.Builder
	cfg := res.Config
	fmt.Fprintf(&b, "Network benchmark: %d clients closed-loop over loopback, %d rows, %d bursts x %d queries/client, %v gaps\n",
		cfg.Clients, cfg.N, cfg.Bursts, cfg.QueriesPerBurst, cfg.Gap)
	fmt.Fprintf(&b, "%-7s %9s %11s %10s %10s %10s %10s | %12s %12s\n",
		"phase", "queries", "throughput", "p50", "p95", "p99", "max", "gap actions", "gap grants")
	for i, burst := range res.Bursts {
		fmt.Fprintf(&b, "burst%-2d %9d %9.0f/s %10v %10v %10v %10v | %12d %12d\n",
			i, burst.Queries, burst.Throughput,
			burst.P50.Round(time.Microsecond), burst.P95.Round(time.Microsecond),
			burst.P99.Round(time.Microsecond), burst.Max.Round(time.Microsecond),
			res.Gaps[i].IdleActions, res.Gaps[i].StepGrants)
	}
	totalGap := int64(0)
	for _, g := range res.Gaps {
		totalGap += g.IdleActions
	}
	fmt.Fprintf(&b, "idle refinement: %d actions before traffic, %d in traffic gaps, %d in intra-burst lulls; 0 started against in-flight requests (gate)\n",
		res.WarmupActions, totalGap, res.BusyActions)
	fmt.Fprintf(&b, "final physical design: %d pieces, avg %.0f values (target %d)\n",
		res.FinalPieces, res.FinalAvg, cfg.TargetPieceSize)
	fmt.Fprintf(&b, "gate: %d requests, %d step grants, %d rejected, %d traffic gaps\n",
		res.Gate.Completed, res.Gate.StepGrants, res.Gate.StepRejected, res.Gate.Gaps)
	return b.String()
}
