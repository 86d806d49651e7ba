// Benchmarks that regenerate every table and figure of the paper's
// evaluation section, plus ablations of the design choices ARCHITECTURE.md
// describes. Figure/table benches run a complete (scaled) experiment per
// iteration and report the headline quantities as custom metrics, so
// `go test -bench=. -benchmem` reproduces the paper's evaluation end to end;
// `cmd/holisticbench` runs the same experiments at arbitrary scale.
//
// Scale note: the paper uses N=10^8 rows and 10^4 queries on a 2012 Xeon;
// these benches default to N≈10^6 and 10^3..2·10^3 queries so the whole
// suite stays CI-sized. The curves' shape — who wins, by what factor, where
// the crossovers sit — is preserved.
package holistic_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"holistic"
	"holistic/internal/engine"
	"holistic/internal/harness"
	"holistic/internal/server"
	"holistic/internal/snapshot"
	"holistic/internal/wal"
	"holistic/internal/workload"
)

const (
	benchN       = 1 << 20 // rows per column
	benchQueries = 1000
)

// reportSeconds attaches a labelled duration metric to the bench.
func reportSeconds(b *testing.B, name string, secs float64) {
	b.ReportMetric(secs, name)
}

// --- Figure 3: single-column experiment, X ∈ {10, 100, 1000} -------------

func benchFig3(b *testing.B, x int) {
	var res *harness.Fig3Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = harness.RunFig3(harness.Fig3Config{
			N: benchN, Queries: benchQueries, X: x, IdleEvery: 100,
			Selectivity: 0.01, Seed: 1, TargetPieceSize: 1 << 14,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeconds(b, "scan-s", res.Scan.Total().Seconds())
	reportSeconds(b, "offline-s", res.Offline.Total().Seconds())
	reportSeconds(b, "adaptive-s", res.Adaptive.Total().Seconds())
	reportSeconds(b, "holistic-s", res.Holistic.Total().Seconds())
	reportSeconds(b, "t_init-s", res.TInit.Seconds())
	reportSeconds(b, "t_sort-s", res.TSort.Seconds())
	// Table 2's cells: each strategy's total work, idle tuning and (for
	// offline) the whole build included.
	for _, row := range harness.Table2(res) {
		reportSeconds(b, strings.ToLower(row.Strategy)+"-total-s", row.TotalWork.Seconds())
	}
}

func BenchmarkFig3a_X10(b *testing.B)   { benchFig3(b, 10) }
func BenchmarkFig3b_X100(b *testing.B)  { benchFig3(b, 100) }
func BenchmarkFig3c_X1000(b *testing.B) { benchFig3(b, 1000) }

// --- Shared by the ablations: one column and its query sequence ---------

func table2Data() ([]int64, []workload.Query) {
	data := workload.UniformData(1, benchN, 1, benchN+1)
	gen := workload.NewUniform("R", "A", 1, benchN+1, 0.01, 2)
	qs := make([]workload.Query, benchQueries)
	for i := range qs {
		qs[i] = gen.Next()
	}
	return data, qs
}

func runSequence(b *testing.B, e *holistic.Engine, qs []workload.Query, idleEvery, x int) {
	b.Helper()
	for i, q := range qs {
		if x > 0 && i%idleEvery == 0 {
			b.StopTimer() // idle work is not query-visible time
			e.IdleActions(x)
			b.StartTimer()
		}
		if _, err := e.Select(q.Table, q.Column, q.Lo, q.Hi); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 4: multi-column experiment ------------------------------------

func BenchmarkFig4(b *testing.B) {
	var res *harness.Fig4Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = harness.RunFig4(harness.Fig4Config{
			Columns: 10, N: benchN / 4, Queries: benchQueries,
			Selectivity: 0.01, Seed: 4, FullIndexes: 2,
			ActionsPerColumn: 100, TargetPieceSize: 1 << 12,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeconds(b, "offline-s", res.Offline.Total().Seconds())
	reportSeconds(b, "holistic-s", res.Holistic.Total().Seconds())
	reportSeconds(b, "offline-idle-s", res.OfflineIdle.Seconds())
	reportSeconds(b, "holistic-idle-s", res.HolisticIdle.Seconds())
	if res.Holistic.Total() >= res.Offline.Total() {
		b.Fatalf("Figure 4 shape broken: holistic %v >= offline %v",
			res.Holistic.Total(), res.Offline.Total())
	}
}

// --- Table 1 and Figures 1-2 (conceptual reproductions) -------------------

func BenchmarkTable1FeatureMatrix(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = harness.FormatTable1(harness.Table1Rows())
	}
	if len(out) == 0 {
		b.Fatal("empty table")
	}
}

func BenchmarkFig1Timeline(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = harness.FormatTimelines(12, 4)
	}
	if len(out) == 0 {
		b.Fatal("empty timeline")
	}
}

func BenchmarkFig2CrackingSteps(b *testing.B) {
	vals := []int64{13, 16, 4, 9, 2, 12, 7, 1, 19, 3, 14, 11, 8, 6}
	qs := [][2]int64{{10, 14}, {7, 16}}
	for i := 0; i < b.N; i++ {
		if out := harness.Fig2(vals, qs); len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// --- Multi-core: concurrent selects and the parallel idle pool -------------

// BenchmarkConcurrentSelects measures select throughput on one holistic
// column of 2^20 rows, one part, after 500 warm-up selects and 2 000 idle
// actions. Every select asks a fresh random 0.1 % range, so nearly every
// one cracks two small pieces: it times the crack path — the probe, the
// piece latches, two partitions and two boundary inserts — in a crack tree
// that grows by two boundaries a select, not the converged lookup. "serial"
// issues the selects from one goroutine, "parallel" from GOMAXPROCS
// goroutines via RunParallel. Cracks of different pieces run at once (each
// holds only its piece's latch, cracker.Index), so parallel ns/op falls
// below serial's, but not to serial/GOMAXPROCS: every select also writes
// state all selects share (the tuner's workload sketch, the load gate, the
// part's queue mutex and latch counts, the crack tree itself).
func benchConcurrentSelects(b *testing.B, parallel bool) {
	const rows = 1 << 20
	data := workload.UniformData(21, rows, 1, rows+1)
	e := holistic.New(holistic.Config{
		Strategy: holistic.StrategyHolistic, Seed: 22,
		TargetPieceSize: 1 << 12, IdleWorkers: 4,
	})
	defer e.Close()
	tab, err := e.CreateTable("R")
	if err != nil {
		b.Fatal(err)
	}
	if err := tab.AddColumnFromSlice("A", append([]int64{}, data...)); err != nil {
		b.Fatal(err)
	}
	// Converge the index first so the steady-state fast path dominates.
	warm := workload.NewUniform("R", "A", 1, rows+1, 0.001, 23)
	for i := 0; i < 500; i++ {
		q := warm.Next()
		if _, err := e.Select(q.Table, q.Column, q.Lo, q.Hi); err != nil {
			b.Fatal(err)
		}
	}
	e.IdleActions(2000)
	b.ResetTimer()
	if parallel {
		var seq atomic.Uint64
		b.RunParallel(func(pb *testing.PB) {
			gen := workload.NewUniform("R", "A", 1, rows+1, 0.001, 100+seq.Add(1))
			for pb.Next() {
				q := gen.Next()
				if _, err := e.Select(q.Table, q.Column, q.Lo, q.Hi); err != nil {
					b.Error(err) // Fatal must not run on a RunParallel goroutine
					return
				}
			}
		})
	} else {
		gen := workload.NewUniform("R", "A", 1, rows+1, 0.001, 99)
		for i := 0; i < b.N; i++ {
			q := gen.Next()
			if _, err := e.Select(q.Table, q.Column, q.Lo, q.Hi); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkConcurrentSelects(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchConcurrentSelects(b, false) })
	b.Run("parallel", func(b *testing.B) { benchConcurrentSelects(b, true) })
}

// BenchmarkParallelIdle measures how fast a pool of idle workers can apply a
// fixed budget of refinement actions across four columns — the multi-core
// version of the paper's "X refinement actions per idle window", driven
// through Engine.IdleActions exactly as the harness drives it. Workers
// claim columns atomically, so 4 workers on 4 columns should scale with the
// core count.
func benchParallelIdle(b *testing.B, workers int) {
	const rows, perCol = 1 << 18, 4
	const budget = 800
	data := make([][]int64, perCol)
	for c := range data {
		data[c] = workload.UniformData(uint64(30+c), rows, 1, int64(rows)+1)
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := holistic.New(holistic.Config{
			Strategy: holistic.StrategyHolistic, Seed: 31,
			TargetPieceSize: 1 << 10, IdleWorkers: workers,
		})
		tab, err := e.CreateTable("R")
		if err != nil {
			b.Fatal(err)
		}
		for c := range data {
			if err := tab.AddColumnFromSlice(fmt.Sprintf("A%d", c), append([]int64{}, data[c]...)); err != nil {
				b.Fatal(err)
			}
			// Seed interest so every column ranks above zero.
			if err := e.SeedWorkloadHint("R", fmt.Sprintf("A%d", c), 10); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if actions, _ := e.IdleActions(budget); actions == 0 {
			b.Fatal("idle window performed no actions")
		}
		b.StopTimer()
		e.Close()
		b.StartTimer()
	}
}

func BenchmarkParallelIdle(b *testing.B) {
	b.Run("workers-1", func(b *testing.B) { benchParallelIdle(b, 1) })
	b.Run("workers-4", func(b *testing.B) { benchParallelIdle(b, 4) })
}

// BenchmarkDeleteWhereIn times DELETE ... WHERE A IN (4 present values) on
// an indexed column: holistic cracked down to its target piece size, offline
// with its full sorted index. The delete resolves each value's first live
// row through the index (one piece, or one binary search), so ns/op must stay
// flat from 250k to 4M rows — up to cache misses and, for holistic, the
// spread of piece sizes random cracking leaves around the same 1024 average
// (about 2x over the range) — where a resolution that scans the column
// grows 16x.
//
// Values are unique and each is deleted once, so every op must delete
// exactly four rows; deletes only buffer, nothing merges inside the timer,
// and when the values run out the timer stops for a fresh indexed engine.
func BenchmarkDeleteWhereIn(b *testing.B) {
	const (
		inList = 4
		stride = 2654435761 // prime > every n: k -> k*stride % n is a bijection on [0, n)
	)
	for _, s := range []holistic.Strategy{holistic.StrategyHolistic, holistic.StrategyOffline} {
		for _, n := range []int{250_000, 1_000_000, 4_000_000} {
			b.Run(fmt.Sprintf("%s/n=%d", s, n), func(b *testing.B) {
				shuffled := make([]int64, n)
				for i := range shuffled {
					shuffled[i] = int64(i)
				}
				rng := rand.New(rand.NewPCG(41, uint64(n)))
				rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				indexed := func() (*holistic.Engine, *holistic.Table) {
					e := holistic.New(holistic.Config{Strategy: s, Seed: 42, TargetPieceSize: 1 << 10})
					tab, err := e.CreateTable("R")
					if err != nil {
						b.Fatal(err)
					}
					if err := tab.AddColumnFromSlice("A", append([]int64{}, shuffled...)); err != nil {
						b.Fatal(err)
					}
					if s == holistic.StrategyOffline {
						_, err = e.BuildFullIndex("R", "A")
					} else {
						_, err = e.Select("R", "A", 0, 1) // materialise the cracked copy
						for actions := 1; actions > 0; {  // idle windows until the tuner reports convergence
							actions, _ = e.IdleActions(1 << 12)
						}
					}
					if err != nil {
						b.Fatal(err)
					}
					return e, tab
				}
				e, tab := indexed()
				defer func() { e.Close() }()
				vals := make([]int64, inList)
				next := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if next+inList > n {
						b.StopTimer()
						e.Close()
						e, tab = indexed()
						next = 0
						b.StartTimer()
					}
					for k := range vals {
						vals[k] = int64(uint64(next) * stride % uint64(n))
						next++
					}
					deleted, err := tab.DeleteWhereIn("A", vals)
					if err != nil || deleted != inList {
						b.Fatalf("DeleteWhereIn(%v) = %d, %v; want %d rows", vals, deleted, err, inList)
					}
				}
			})
		}
	}
}

// BenchmarkDurableInsertParallel times one-row inserts into a durable
// engine — a statement log fsynced before every acknowledgement — from 1, 2,
// 8 and 32 concurrent writers. us/op is wall time per insert across all
// writers, and fsyncs/op the log's fsyncs per insert: below 1 when writers
// share an fsync (group commit).
func BenchmarkDurableInsertParallel(b *testing.B) {
	for _, writers := range []int{1, 2, 8, 32} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			e := engine.New(engine.Config{Strategy: engine.StrategyHolistic, Seed: 1})
			defer e.Close()
			store, _, err := snapshot.Open(nil, b.TempDir(), e, snapshot.Config{
				Policy: wal.Policy{Sync: wal.SyncAlways},
				Shards: e.Shards(),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			tab, err := e.CreateTable("R")
			if err == nil {
				err = tab.AddColumnFromSlice("A", make([]int64, 1024))
			}
			if err != nil {
				b.Fatal(err)
			}
			before := store.LogStats()
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
						if _, err := tab.InsertRow(i); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/op")
			b.ReportMetric(float64(store.LogStats().Fsyncs-before.Fsyncs)/float64(b.N), "fsyncs/op")
		})
	}
}

// --- Front end: one converged select over the wire -------------------------

// BenchmarkWireSelect times one statement end to end over loopback TCP on a
// fully converged column: two closed-loop clients (one connection each) send
// 16-value range selects at 2^11 grid points of a 1M-row, 2-shard holistic
// column whose every integer in those ranges already is a crack boundary. No
// select cracks, so ns/op, B/op and allocs/op
// are the front end — socket, wire codec, admission, parse, per-part
// bookkeeping — for client and server together (both live in this process).
func BenchmarkWireSelect(b *testing.B) {
	const (
		rows, grid, width = 1 << 20, 1 << 11, 16
		clients           = 2
	)
	e := holistic.New(holistic.Config{
		Strategy: holistic.StrategyHolistic, Seed: 51, TargetPieceSize: 128, Shards: 2,
	})
	defer e.Close()
	tab, err := e.CreateTable("r")
	if err != nil {
		b.Fatal(err)
	}
	if err := tab.AddColumnFromSlice("a", workload.UniformData(52, rows, 1, rows+1)); err != nil {
		b.Fatal(err)
	}
	stmts := make([]string, grid)
	for g := range stmts {
		base := int64(1 + g*(rows/grid))
		stmts[g] = fmt.Sprintf("select a from r where a >= %d and a < %d", base, base+width)
		for v := base; v <= base+width; v++ { // a boundary at every integer of the range
			if _, err := e.Select("r", "a", v, v+1); err != nil {
				b.Fatal(err)
			}
		}
	}
	srv := server.New(server.Config{Engine: e})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Shutdown(context.Background())
	conns := make([]*server.Client, clients)
	for i := range conns {
		if conns[i], err = server.Dial(lis.Addr().String()); err != nil {
			b.Fatal(err)
		}
		defer conns[i].Close()
	}
	pieces, _, _ := e.PieceStats("r", "a")
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for ci, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(53, uint64(ci)))
			for i := ci; i < b.N; i += clients {
				if count, _, err := c.Query(stmts[rng.IntN(grid)]); err != nil || count == 0 {
					b.Errorf("select: count=%d err=%v", count, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if after, _, _ := e.PieceStats("r", "a"); after != pieces {
		b.Fatalf("column reorganised during the measured phase: %d pieces before, %d after", pieces, after)
	}
}

// --- Ablations -------------------------------------------------------------

// A1: ranked idle cracking (workload knowledge) vs blind spreading. Both
// tuners get the same idle budget; queries then hit only one of four
// columns. Knowledge should concentrate the budget and serve the burst
// faster.
func BenchmarkAblationRanking(b *testing.B) {
	data := make([][]int64, 4)
	for c := range data {
		data[c] = workload.UniformData(uint64(10+c), benchN/4, 1, benchN/4+1)
	}
	setup := func(seeded bool) *holistic.Engine {
		e := holistic.New(holistic.Config{Strategy: holistic.StrategyHolistic, Seed: 5, TargetPieceSize: 1 << 10})
		tab, _ := e.CreateTable("R")
		for c := range data {
			tab.AddColumnFromSlice(fmt.Sprintf("A%d", c), append([]int64{}, data[c]...))
		}
		if seeded {
			e.SeedWorkloadHint("R", "A0", 100)
		}
		e.IdleActions(400)
		return e
	}
	for _, mode := range []struct {
		name   string
		seeded bool
	}{{"ranked", true}, {"blind", false}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := setup(mode.seeded)
				gen := workload.NewUniform("R", "A0", 1, int64(benchN/4+1), 0.01, 6)
				b.StartTimer()
				for q := 0; q < 200; q++ {
					query := gen.Next()
					if _, err := e.Select(query.Table, query.Column, query.Lo, query.Hi); err != nil {
						b.Fatal(err)
					}
				}
				e.Close()
			}
		})
	}
}

// A5: the online strategy on the Figure 3 workload (the paper discusses but
// does not plot it: the epoch-triggering query pays the whole build).
func BenchmarkAblationOnline(b *testing.B) {
	data, qs := table2Data()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := holistic.New(holistic.Config{Strategy: holistic.StrategyOnline, Seed: 13})
		tab, _ := e.CreateTable("R")
		tab.AddColumnFromSlice("A", append([]int64{}, data...))
		b.StartTimer()
		runSequence(b, e, qs, 0, 0)
		e.Close()
	}
}

// A6: update maintenance — cracked pending-merge vs sorted-index memmove
// under an interleaved insert/query stream.
func BenchmarkAblationUpdates(b *testing.B) {
	data := workload.UniformData(14, benchN/4, 1, benchN/4+1)
	modes := []struct {
		name string
		s    holistic.Strategy
	}{{"cracked", holistic.StrategyAdaptive}, {"sorted", holistic.StrategyOffline}}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := holistic.New(holistic.Config{Strategy: m.s, Seed: 15})
				tab, _ := e.CreateTable("R")
				tab.AddColumnFromSlice("A", append([]int64{}, data...))
				if m.s == holistic.StrategyOffline {
					e.BuildFullIndex("R", "A")
				} else {
					e.Select("R", "A", 0, 1) // materialise the cracked copy
				}
				gen := workload.NewUniform("R", "A", 1, int64(benchN/4+1), 0.01, 16)
				b.StartTimer()
				for q := 0; q < 200; q++ {
					if _, err := tab.InsertRow(int64(q*37 + 1)); err != nil {
						b.Fatal(err)
					}
					query := gen.Next()
					if _, err := e.Select(query.Table, query.Column, query.Lo, query.Hi); err != nil {
						b.Fatal(err)
					}
				}
				e.Close()
			}
		})
	}
}

// A7: sensitivity of holistic's total to the target piece size (when do
// extra refinements stop paying off?).
func BenchmarkAblationPieceTarget(b *testing.B) {
	data, qs := table2Data()
	for _, target := range []int{1 << 10, 1 << 14, 1 << 18} {
		b.Run(fmt.Sprintf("target-%d", target), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := holistic.New(holistic.Config{Strategy: holistic.StrategyHolistic, Seed: 17, TargetPieceSize: target})
				tab, _ := e.CreateTable("R")
				tab.AddColumnFromSlice("A", append([]int64{}, data...))
				b.StartTimer()
				runSequence(b, e, qs, 100, 100)
				e.Close()
			}
		})
	}
}
