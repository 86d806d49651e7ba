package engine

import (
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"holistic/internal/shard"
)

func randomVals(rng *rand.Rand, n int, domain int64) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int64N(domain)
	}
	return vals
}

// newEngineWithData builds an engine with table R, column A holding vals.
func newEngineWithData(t testing.TB, cfg Config, vals []int64) *Engine {
	t.Helper()
	e := New(cfg)
	tab, err := e.CreateTable("R")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumnFromSlice("A", append([]int64{}, vals...)); err != nil {
		t.Fatal(err)
	}
	return e
}

func naiveRange(vals []int64, lo, hi int64) (int, int64) {
	n, s := 0, int64(0)
	for _, v := range vals {
		if v >= lo && v < hi {
			n++
			s += v
		}
	}
	return n, s
}

// oracleScan answers [lo, hi) with a tombstone-aware full scan of every part,
// the reference tests compare against at quiesced points.
func oracleScan(sc *shard.Column, lo, hi int64) (count int, sum int64) {
	for _, p := range sc.Parts() {
		c, s := p.ScanCountSum(lo, hi)
		count, sum = count+c, sum+s
	}
	return count, sum
}

func TestCatalogErrors(t *testing.T) {
	e := New(Config{Strategy: StrategyScan})
	if _, err := e.Table("nope"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("err = %v", err)
	}
	tab, _ := e.CreateTable("R")
	if _, err := e.CreateTable("R"); !errors.Is(err, ErrTableExists) {
		t.Fatalf("err = %v", err)
	}
	if err := tab.AddColumnFromSlice("A", []int64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumnFromSlice("A", []int64{1, 2}); !errors.Is(err, ErrColumnExists) {
		t.Fatalf("err = %v", err)
	}
	if err := tab.AddColumnFromSlice("B", []int64{1}); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("err = %v", err)
	}
	if _, err := e.Select("R", "nope", 0, 1); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("err = %v", err)
	}
	if _, err := e.Select("nope", "A", 0, 1); !errors.Is(err, ErrNoTable) {
		t.Fatalf("err = %v", err)
	}
	if _, err := e.BuildFullIndex("R", "nope"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("err = %v", err)
	}
}

func TestStrategyNamesAndCapabilities(t *testing.T) {
	want := map[Strategy]string{
		StrategyScan: "scan", StrategyOffline: "offline", StrategyOnline: "online",
		StrategyAdaptive: "adaptive", StrategyHolistic: "holistic",
	}
	for s, name := range want {
		if s.String() != name {
			t.Fatalf("%v.String() = %q", int(s), s.String())
		}
	}
	// Table 1 of the paper, row by row.
	off := StrategyOffline.Capabilities()
	if !off.StatisticalAnalysis || !off.IdleTimeAPriori || off.IdleTimeDuring || off.IncrementalIndexing || off.Workload != "static" {
		t.Fatalf("offline caps: %+v", off)
	}
	on := StrategyOnline.Capabilities()
	if !on.StatisticalAnalysis || on.IdleTimeAPriori || !on.IdleTimeDuring || on.IncrementalIndexing || on.Workload != "dynamic" {
		t.Fatalf("online caps: %+v", on)
	}
	ad := StrategyAdaptive.Capabilities()
	if ad.StatisticalAnalysis || ad.IdleTimeAPriori || ad.IdleTimeDuring || !ad.IncrementalIndexing || ad.Workload != "dynamic" {
		t.Fatalf("adaptive caps: %+v", ad)
	}
	ho := StrategyHolistic.Capabilities()
	if !ho.StatisticalAnalysis || !ho.IdleTimeAPriori || !ho.IdleTimeDuring || !ho.IncrementalIndexing || ho.Workload != "dynamic" {
		t.Fatalf("holistic caps: %+v", ho)
	}
	if len(Strategies()) != 5 {
		t.Fatal("Strategies() incomplete")
	}

	// Each engine behaves like its row: a select cracks exactly with
	// incremental indexing, and idle time reaches a tuner or the online review
	// exactly when the row exploits idle time during the workload.
	vals := randomVals(rand.New(rand.NewPCG(3, 4)), 4096, 1<<20)
	for _, s := range Strategies() {
		caps := s.Capabilities()
		e := newEngineWithData(t, Config{Strategy: s, Seed: 5, TargetPieceSize: 16, IdleWorkers: 1}, vals)
		for i := int64(0); i < 20; i++ {
			if _, err := e.Select("R", "A", i<<10, i<<10+512); err != nil {
				t.Fatal(err)
			}
		}
		if pieces, _, _ := e.PieceStats("R", "A"); (pieces > 1) != caps.IncrementalIndexing {
			t.Fatalf("%v: selects left %d pieces; incremental indexing is %v", s, pieces, caps.IncrementalIndexing)
		}
		if actions, _ := e.IdleActions(8); (actions > 0) != caps.IdleTimeDuring {
			t.Fatalf("%v: an idle window took %d actions; idle time during the workload is %v", s, actions, caps.IdleTimeDuring)
		}
		e.Close()
	}
}

// TestAllStrategiesAgree is the master integration property: identical data
// and queries produce identical results under every strategy.
func TestAllStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	vals := randomVals(rng, 20000, 50000)
	queries := make([][2]int64, 300)
	for i := range queries {
		lo := rng.Int64N(50000)
		queries[i] = [2]int64{lo, lo + rng.Int64N(600) + 1}
	}
	type run struct {
		name    string
		results []Result
	}
	var runs []run
	for _, s := range Strategies() {
		e := newEngineWithData(t, Config{Strategy: s, Seed: 7, TargetPieceSize: 512}, vals)
		if s == StrategyOffline {
			if _, err := e.BuildFullIndex("R", "A"); err != nil {
				t.Fatal(err)
			}
		}
		var rs []Result
		for qi, q := range queries {
			r, err := e.Select("R", "A", q[0], q[1])
			if err != nil {
				t.Fatal(err)
			}
			rs = append(rs, r)
			// Sprinkle idle windows; results must be unaffected.
			if qi%50 == 25 {
				e.IdleActions(20)
			}
		}
		e.Close()
		runs = append(runs, run{s.String(), rs})
	}
	for qi := range queries {
		wc, ws := naiveRange(vals, queries[qi][0], queries[qi][1])
		for _, r := range runs {
			if r.results[qi].Count != wc || r.results[qi].Sum != ws {
				t.Fatalf("q%d %v: %s returned %d/%d want %d/%d",
					qi, queries[qi], r.name, r.results[qi].Count, r.results[qi].Sum, wc, ws)
			}
		}
	}
}

func TestOfflineWithoutIndexFallsBackToScan(t *testing.T) {
	vals := []int64{5, 1, 9, 3}
	e := newEngineWithData(t, Config{Strategy: StrategyOffline}, vals)
	r, err := e.Select("R", "A", 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count != 2 || r.Sum != 8 {
		t.Fatalf("fallback scan: %d/%d", r.Count, r.Sum)
	}
}

// A dropped full index is freed whatever the strategy: the column reports no
// index and answers like a scan through writes, and holistic idle time cracks
// a fresh copy.
func TestDropFullIndexFreesIndex(t *testing.T) {
	vals := randomVals(rand.New(rand.NewPCG(9, 10)), 200000, 1<<20)
	for _, strategy := range []Strategy{StrategyOnline, StrategyOffline, StrategyHolistic} {
		e := newEngineWithData(t, Config{Strategy: strategy, Shards: 2, IdleWorkers: 1}, vals)
		ref := newEngineWithData(t, Config{Strategy: StrategyScan}, vals)
		agree := func(op int, lo, hi int64) {
			got, _ := e.Select("R", "A", lo, hi)
			want, _ := ref.Select("R", "A", lo, hi)
			if got.Count != want.Count || got.Sum != want.Sum {
				t.Fatalf("%v, op %d: select [%d, %d) %d/%d, scan %d/%d", strategy, op, lo, hi, got.Count, got.Sum, want.Count, want.Sum)
			}
		}
		if d, err := e.BuildFullIndex("R", "A"); err != nil || d <= 0 {
			t.Fatalf("%v: build: %v %v", strategy, d, err)
		}
		agree(-1, 100, 200) // answered by the full index
		if err := e.DropFullIndex("R", "A"); err != nil {
			t.Fatal(err)
		}
		sc, _ := e.column("R", "A")
		pieces, _ := sc.PieceStats()
		d := e.DescribePhysicalDesign()[0]
		for _, p := range sc.Parts() {
			if ix := p.Cracked(); d.FullIndex || d.Cracked || pieces != 2 || ix != nil {
				t.Fatalf("%v after the drop: full %v, cracked %v (%d pieces of %.0f values), %d pieces over 2 parts; part %s holds a copy: %v",
					strategy, d.FullIndex, d.Cracked, d.Pieces, d.AvgPieceSize, pieces, p.Name(), ix != nil)
			}
		}
		rng := rand.New(rand.NewPCG(11, 12))
		for i := 0; i < 50; i++ {
			v := vals[rng.IntN(len(vals))]
			agree(i, v, v+1<<12)
			for _, eng := range []*Engine{e, ref} {
				if tab, _ := eng.Table("R"); i%2 == 0 {
					tab.InsertRow(v + 7)
				} else {
					tab.DeleteWhere("A", v)
				}
			}
		}
		if strategy == StrategyHolistic {
			if n, _ := e.IdleActions(50); n == 0 || !sc.AnyCracked() || sc.Validate() != nil {
				t.Fatalf("idle time after the drop: %d actions, cracked %v, %v", n, sc.AnyCracked(), sc.Validate())
			}
		}
		e.Close()
	}
}

func TestOnlineBuildsIndexAfterEpoch(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	vals := randomVals(rng, 200000, 1<<20)
	e := newEngineWithData(t, Config{Strategy: StrategyOnline}, vals)
	for i := 0; i < 100; i++ { // the review's epoch
		lo := rng.Int64N(1 << 20)
		if _, err := e.Select("R", "A", lo, lo+1000); err != nil {
			t.Fatal(err)
		}
	}
	// After one epoch of scans on a big column the review must have built.
	sc, _ := e.column("R", "A")
	if !sc.HasSorted() {
		t.Fatal("online strategy never built the index")
	}
}

func TestAdaptiveCannotExploitIdle(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	vals := randomVals(rng, 10000, 10000)
	e := newEngineWithData(t, Config{Strategy: StrategyAdaptive}, vals)
	if a, w := e.IdleActions(100); a != 0 || w != 0 {
		t.Fatalf("adaptive exploited idle: %d actions %d work", a, w)
	}
	eScan := newEngineWithData(t, Config{Strategy: StrategyScan}, vals)
	if a, _ := eScan.IdleActions(100); a != 0 {
		t.Fatal("scan exploited idle")
	}
}

func TestHolisticIdleRefinesPieces(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	vals := randomVals(rng, 50000, 1<<30)
	e := newEngineWithData(t, Config{Strategy: StrategyHolistic, Seed: 1, TargetPieceSize: 64}, vals)
	p0, _, _ := e.PieceStats("R", "A")
	if p0 != 1 {
		t.Fatalf("fresh column pieces = %d", p0)
	}
	actions, work := e.IdleActions(200)
	if actions != 200 || work <= 0 {
		t.Fatalf("idle: %d actions %d work", actions, work)
	}
	p1, avg, _ := e.PieceStats("R", "A")
	if p1 < 150 {
		t.Fatalf("pieces after idle: %d", p1)
	}
	if avg >= 50000 {
		t.Fatalf("avg piece size %f did not shrink", avg)
	}
	// Queries after idle refinement still correct.
	for i := 0; i < 20; i++ {
		lo := rng.Int64N(1 << 30)
		r, err := e.Select("R", "A", lo, lo+1<<20)
		if err != nil {
			t.Fatal(err)
		}
		wc, ws := naiveRange(vals, lo, lo+1<<20)
		if r.Count != wc || r.Sum != ws {
			t.Fatalf("post-idle q%d wrong: %d/%d want %d/%d", i, r.Count, r.Sum, wc, ws)
		}
	}
}

func TestHolisticHotRangeBoost(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	vals := randomVals(rng, 50000, 1<<20)
	e := newEngineWithData(t, Config{Strategy: StrategyHolistic, Seed: 2, TargetPieceSize: 64}, vals)
	defer e.Close()
	// Hammer one range; the selects crack only at the two query bounds.
	for i := 0; i < 30; i++ {
		if _, err := e.Select("R", "A", 1000, 3000); err != nil {
			t.Fatal(err)
		}
	}
	p, _, _ := e.PieceStats("R", "A")
	// Plain cracking of one repeated range yields 3 pieces.
	if p != 3 || e.Tuner().Boosts() != 0 {
		t.Fatalf("pieces = %d, boosts = %d: the select path refined beyond its bounds", p, e.Tuner().Boosts())
	}
	// Refinement beyond the query bounds is idle work.
	if a, _ := e.IdleActions(20); a == 0 {
		t.Fatal("idle refined nothing")
	}
	if p2, _, _ := e.PieceStats("R", "A"); p2 <= p {
		t.Fatalf("pieces = %d after idle, idle had no physical effect", p2)
	}
}

func TestSeedWorkloadHintFocusesIdle(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 16))
	e := New(Config{Strategy: StrategyHolistic, Seed: 3, TargetPieceSize: 16})
	tab, _ := e.CreateTable("R")
	if err := tab.AddColumnFromSlice("hot", randomVals(rng, 20000, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumnFromSlice("cold", randomVals(rng, 20000, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if err := e.SeedWorkloadHint("R", "hot", 100); err != nil {
		t.Fatal(err)
	}
	e.IdleActions(60)
	ph, _, _ := e.PieceStats("R", "hot")
	pc, _, _ := e.PieceStats("R", "cold")
	if ph <= pc*3 {
		t.Fatalf("seeded column not favoured: hot=%d cold=%d pieces", ph, pc)
	}
}

func TestInsertDeleteVisibleAcrossStrategies(t *testing.T) {
	base := []int64{10, 20, 30, 40, 50}
	for _, s := range Strategies() {
		e := newEngineWithData(t, Config{Strategy: s}, base)
		tab, _ := e.Table("R")
		if s == StrategyOffline {
			e.BuildFullIndex("R", "A")
		}
		// Query first so cracked strategies materialise their copy, then
		// mutate: updates must flow through pending buffers.
		if _, err := e.Select("R", "A", 0, 100); err != nil {
			t.Fatal(err)
		}
		if _, err := tab.InsertRow(25); err != nil {
			t.Fatal(err)
		}
		if ok, err := tab.DeleteWhere("A", 40); err != nil || !ok {
			t.Fatalf("delete: %v %v", ok, err)
		}
		if ok, _ := tab.DeleteWhere("A", 999); ok {
			t.Fatal("deleted a value that does not exist")
		}
		r, err := e.Select("R", "A", 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		// Live rows: 10,20,30,50,25 -> count 5, sum 135.
		if r.Count != 5 || r.Sum != 135 {
			t.Fatalf("%v after updates: %d/%d", s, r.Count, r.Sum)
		}
		if tab.Rows() != 5 {
			t.Fatalf("%v live rows %d", s, tab.Rows())
		}
		e.Close()
	}
}

func TestMultiColumnRowAlignment(t *testing.T) {
	e := New(Config{Strategy: StrategyHolistic, Seed: 4})
	tab, _ := e.CreateTable("R")
	tab.AddColumnFromSlice("a", []int64{1, 2, 3})
	tab.AddColumnFromSlice("b", []int64{10, 20, 30})
	// Crack both columns.
	e.Select("R", "a", 0, 10)
	e.Select("R", "b", 0, 100)
	// Deleting via column a must remove the row from b too.
	if ok, _ := tab.DeleteWhere("a", 2); !ok {
		t.Fatal("delete failed")
	}
	rb, _ := e.Select("R", "b", 0, 100)
	if rb.Count != 2 || rb.Sum != 40 {
		t.Fatalf("b after delete via a: %d/%d", rb.Count, rb.Sum)
	}
	// Insert a full row.
	if _, err := tab.InsertRow(7, 70); err != nil {
		t.Fatal(err)
	}
	ra, _ := e.Select("R", "a", 0, 10)
	rb, _ = e.Select("R", "b", 0, 100)
	if ra.Count != 3 || rb.Count != 3 || rb.Sum != 110 {
		t.Fatalf("after insert: a=%d b=%d/%d", ra.Count, rb.Count, rb.Sum)
	}
	if _, err := tab.InsertRow(1); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("short insert: %v", err)
	}
}

// TestPropertyEngineMatchesOracle drives a random mix of queries, inserts,
// deletes and idle windows through adaptive and holistic engines and checks
// every result against a naive oracle.
func TestPropertyEngineMatchesOracle(t *testing.T) {
	f := func(seed uint64, holistic bool) bool {
		rng := rand.New(rand.NewPCG(seed, 77))
		domain := int64(2000)
		vals := randomVals(rng, 500, domain)
		s := StrategyAdaptive
		if holistic {
			s = StrategyHolistic
		}
		e := New(Config{Strategy: s, Seed: seed, TargetPieceSize: 32})
		tab, _ := e.CreateTable("R")
		tab.AddColumnFromSlice("A", append([]int64{}, vals...))
		oracle := append([]int64{}, vals...)
		for op := 0; op < 80; op++ {
			switch rng.IntN(6) {
			case 0: // insert
				v := rng.Int64N(domain)
				if _, err := tab.InsertRow(v); err != nil {
					return false
				}
				oracle = append(oracle, v)
			case 1: // delete
				if len(oracle) == 0 {
					continue
				}
				v := oracle[rng.IntN(len(oracle))]
				ok, err := tab.DeleteWhere("A", v)
				if err != nil || !ok {
					return false
				}
				for i, ov := range oracle {
					if ov == v {
						oracle = append(oracle[:i], oracle[i+1:]...)
						break
					}
				}
			case 5: // idle window
				e.IdleActions(5)
			default: // query
				lo := rng.Int64N(domain+100) - 50
				hi := lo + rng.Int64N(domain/2+1)
				r, err := e.Select("R", "A", lo, hi)
				if err != nil {
					return false
				}
				wc, ws := naiveRange(oracle, lo, hi)
				if r.Count != wc || r.Sum != ws {
					return false
				}
			}
		}
		e.Close()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyColumn(t *testing.T) {
	for _, s := range Strategies() {
		e := newEngineWithData(t, Config{Strategy: s}, nil)
		r, err := e.Select("R", "A", 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		if r.Count != 0 || r.Sum != 0 {
			t.Fatalf("%v on empty column: %+v", s, r)
		}
		e.Close()
	}
}

func TestDegenerateRanges(t *testing.T) {
	vals := []int64{1, 2, 3}
	for _, s := range Strategies() {
		e := newEngineWithData(t, Config{Strategy: s}, vals)
		for _, q := range [][2]int64{{2, 2}, {3, 1}} {
			r, err := e.Select("R", "A", q[0], q[1])
			if err != nil || r.Count != 0 {
				t.Fatalf("%v degenerate %v: %+v %v", s, q, r, err)
			}
		}
		e.Close()
	}
}

func TestHolisticBoostDisabledViaConfig(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 62))
	vals := randomVals(rng, 20000, 1<<16)
	// No Config field turns a query-time boost on: the default holistic
	// engine is the one that must not boost.
	e := newEngineWithData(t, Config{Strategy: StrategyHolistic, Seed: 9, TargetPieceSize: 64}, vals)
	defer e.Close()
	for i := 0; i < 30; i++ {
		if _, err := e.Select("R", "A", 1000, 3000); err != nil {
			t.Fatal(err)
		}
	}
	if e.Tuner().Boosts() != 0 {
		t.Fatalf("boosts ran on the select path: %d", e.Tuner().Boosts())
	}
	// Exactly the two query-bound cracks (plus the lazy copy) exist.
	p, _, _ := e.PieceStats("R", "A")
	if p != 3 {
		t.Fatalf("pieces = %d, want 3 without boosts", p)
	}
}

func TestAutoIdleViaConfigSmoke(t *testing.T) {
	rng := rand.New(rand.NewPCG(63, 64))
	vals := randomVals(rng, 30000, 1<<20)
	e := newEngineWithData(t, Config{
		Strategy: StrategyHolistic, Seed: 10, TargetPieceSize: 128,
		AutoIdle: true,
	}, vals)
	defer e.Close()
	// Query once so the collector has a signal, then let the worker run.
	if _, err := e.Select("R", "A", 0, 1000); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for e.Tuner().Actions() == 0 {
		select {
		case <-deadline:
			t.Skip("background worker found no idle window on a loaded machine")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	// The auto-refined index still answers correctly.
	r, err := e.Select("R", "A", 5000, 9000)
	if err != nil {
		t.Fatal(err)
	}
	wc, _ := naiveRange(vals, 5000, 9000)
	if r.Count != wc {
		t.Fatalf("count %d want %d", r.Count, wc)
	}
}

func TestPieceStats(t *testing.T) {
	e := newEngineWithData(t, Config{Strategy: StrategyAdaptive}, []int64{5, 1, 8, 3})
	p, avg, err := e.PieceStats("R", "A")
	if err != nil || p != 1 || avg != 4 {
		t.Fatalf("fresh: %d %f %v", p, avg, err)
	}
	e.Select("R", "A", 2, 6)
	p, _, _ = e.PieceStats("R", "A")
	if p != 3 {
		t.Fatalf("after crack-in-three: %d pieces", p)
	}
	if _, _, err := e.PieceStats("R", "nope"); err == nil {
		t.Fatal("missing column accepted")
	}
	// Empty column.
	e2 := newEngineWithData(t, Config{Strategy: StrategyAdaptive}, nil)
	if p, _, _ := e2.PieceStats("R", "A"); p != 0 {
		t.Fatalf("empty column pieces %d", p)
	}
}
