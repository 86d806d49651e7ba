package engine

// The engine's model test: seeded programs run against every strategy at
// shards {1, 3, 8} beside a model of table R(a, b).
//
// A sequential program (runModelProgram) keeps the model's rows in row
// order, each live or not, where a delete kills the lowest live row holding
// its value (modelRow, refFirstLive and refCountSum come from
// firstlive_test.go). Column a draws from a small domain, so values repeat;
// column b is the row id, distinct per row, so a delete that kills the
// wrong row, or skips a column, shows in b's sums.
//
// A concurrent program (runConcurrentProgram) races readers, writers and
// idle windows, with b = 2a+1 on every row, and checks the model exactly
// where the contract makes one answer right: on the stable band while the
// race runs, and on whole columns at the quiesce points that follow.

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"holistic/internal/shard"
)

// strategiesUnderTest is every strategy the model runs.
var strategiesUnderTest = []struct {
	name string
	s    Strategy
}{
	{"scan", StrategyScan},
	{"offline", StrategyOffline},
	{"online", StrategyOnline},
	{"adaptive", StrategyAdaptive},
	{"holistic", StrategyHolistic},
}

func TestEngineMatchesModel(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		for _, st := range strategiesUnderTest {
			cfg := Config{Strategy: st.s, Seed: 3, TargetPieceSize: 16, Shards: shards}
			name := st.name + "/shards=" + strconv.Itoa(shards)
			for _, load := range []struct{ n, ops int }{{0, 300}, {2000, 300}, {20000, 100}} {
				t.Run(name+"/rows="+strconv.Itoa(load.n), func(t *testing.T) { runModelProgram(t, cfg, load.n, load.ops) })
			}
			t.Run(name+"/concurrent", func(t *testing.T) { runConcurrentProgram(t, cfg) })
		}
	}
}

// runModelProgram loads n rows and runs one seeded program of ops ops. After
// every op both columns' count and sum and Table.Rows must match the model;
// at the end every column, merged, must validate.
func runModelProgram(t *testing.T, cfg Config, n, ops int) {
	const domain = int64(48) // ~40 rows a value in a 2 000-row load
	rng := rand.New(rand.NewPCG(uint64(cfg.Shards), uint64(cfg.Strategy)<<16|uint64(n)))
	e := New(cfg)
	defer e.Close()
	if e.Shards() != cfg.Shards {
		t.Fatalf("Shards() = %d, want %d", e.Shards(), cfg.Shards)
	}
	tab, err := e.CreateTable("R")
	if err != nil {
		t.Fatal(err)
	}
	names := [2]string{"a", "b"}
	var rows []modelRow
	// The model's live rows, and each column's count and sum over
	// [MinInt64, MaxInt64), which leaves out MaxInt64. They are running
	// totals because rescanning a 20 000-row model after every op made the
	// model's -race run about half again as long.
	var live int
	var counts [2]int
	var sums [2]int64
	add := func(r modelRow, sign int) {
		live += sign
		for c, v := range r.vals {
			if v != math.MaxInt64 {
				counts[c] += sign
				sums[c] += int64(sign) * v
			}
		}
	}
	aValue := func() int64 { // mostly the small domain, sometimes an end of int64
		return []int64{math.MinInt64, math.MaxInt64, rng.Int64N(domain)}[min(rng.IntN(32), 2)]
	}
	a, b := make([]int64, n), make([]int64, n)
	for g := range a {
		a[g], b[g] = aValue(), int64(g)
		rows = append(rows, modelRow{vals: [2]int64{a[g], b[g]}, live: true})
		add(rows[g], 1)
	}
	for c, vals := range [][]int64{a, b} {
		if err := tab.AddColumnFromSlice(names[c], vals); err != nil {
			t.Fatal(err)
		}
	}

	op := "the load"
	sel := func(c int, lo, hi int64, wc int, ws int64) {
		t.Helper()
		res, err := e.Select("R", names[c], lo, hi)
		if err != nil || res.Count != wc || res.Sum != ws {
			t.Fatalf("after %s: select %s [%d, %d) = %d/%d, %v; model %d/%d", op, names[c], lo, hi, res.Count, res.Sum, err, wc, ws)
		}
	}
	check := func() {
		t.Helper()
		for c := range names {
			sel(c, math.MinInt64, math.MaxInt64, counts[c], sums[c])
		}
		if tab.Rows() != live {
			t.Fatalf("after %s: Rows() = %d, model %d", op, tab.Rows(), live)
		}
	}
	// pick draws a delete value: a live row's, from the last rows inserted
	// (likely still buffered) or from anywhere (likely merged); a dead row's;
	// or one never present.
	pick := func() int64 {
		k := rng.IntN(4)
		from := []int{max(len(rows)-16, 0), 0, 0, len(rows)}[k]
		for range 8 * min(len(rows)-from, 1) {
			if g := from + rng.IntN(len(rows)-from); rows[g].live == (k < 2) {
				return rows[g].vals[0]
			}
		}
		return domain + 1 + rng.Int64N(domain)
	}

	check()
	if cfg.Strategy == StrategyOffline { // its a-priori step
		for _, name := range names {
			if _, err := e.BuildFullIndex("R", name); err != nil {
				t.Fatal(err)
			}
		}
	}
	op = "the first selects"
	for c := range names {
		sel(c, 2, 2, 0, 0) // empty
		sel(c, 3, 1, 0, 0) // inverted
	}
	for range ops {
		switch p := rng.IntN(100); {
		case p < 30:
			op = "a select" // empty, inverted, open-ended or plain, sometimes from MinInt64
			c := rng.IntN(2)
			span := []int64{domain, int64(len(rows)) + 1}[c]
			lo := rng.Int64N(span+8) - 4
			hi := []int64{lo, lo - 1 - rng.Int64N(span), math.MaxInt64, lo + 1 + rng.Int64N(span/4+1)}[rng.IntN(4)]
			if rng.IntN(5) == 0 {
				lo = math.MinInt64
			}
			wc, ws := refCountSum(rows, c, lo, hi)
			sel(c, lo, hi, wc, ws)
		case p < 55:
			op = "an insert"
			batch := make([][]int64, 1+rng.IntN(8))
			for j := range batch {
				batch[j] = []int64{aValue(), int64(len(rows) + j)}
			}
			if first, err := tab.InsertRows(batch); err != nil || int(first) != len(rows) {
				t.Fatalf("insert of %d rows: first row %d, %v; model expects %d", len(batch), first, err, len(rows))
			}
			for _, r := range batch {
				rows = append(rows, modelRow{vals: [2]int64{r[0], r[1]}, live: true})
				add(rows[len(rows)-1], 1)
			}
		case p < 60:
			op = "a wrong-arity insert"
			bad := [][][]int64{{{1}}, {{1, 2, 3}}, {{1, 2}, {3}}}[rng.IntN(3)]
			if _, err := tab.InsertRows(bad); !errors.Is(err, ErrLengthMismatch) {
				t.Fatalf("insert of %v: %v, want ErrLengthMismatch", bad, err)
			}
		case p < 80:
			op = "a delete"
			values, want := make([]int64, 1+rng.IntN(4)), 0
			for j := range values {
				values[j] = pick()
				if g, ok := refFirstLive(rows, 0, values[j]); ok {
					rows[g].live = false
					add(rows[g], -1)
					want++
				}
			}
			if got, err := tab.DeleteWhereIn("a", values); err != nil || got != want {
				t.Fatalf("delete where a in %v: %d, %v; model deletes %d", values, got, err, want)
			}
		case p < 88:
			op = "an idle window"
			e.IdleActions(1 + rng.IntN(8))
		case p < 93:
			op = "a merge"
			e.MergePending()
		case p < 97:
			op = "a full-index build"
			if _, err := e.BuildFullIndex("R", names[rng.IntN(2)]); err != nil {
				t.Fatal(err)
			}
		default:
			op = "a full-index drop"
			if err := e.DropFullIndex("R", names[rng.IntN(2)]); err != nil {
				t.Fatal(err)
			}
		}
		check()
	}
	op = "the final merge"
	e.MergePending()
	check()
	validateColumns(t, e, names)
}

// validateColumns checks both columns' structures (shard.Column.Validate).
func validateColumns(t *testing.T, e *Engine, names [2]string) {
	t.Helper()
	for _, name := range names {
		sc, err := e.column("R", name)
		if err == nil {
			err = sc.Validate()
		}
		if err != nil {
			t.Fatalf("column %s: %v", name, err)
		}
	}
}

// The concurrent program's bands of column a. Column b holds bOf(a).
const (
	stableDomain = int64(1 << 16) // the stable band [0, stableDomain): loaded rows no writer touches
	victimBase   = stableDomain   // the victim band: loaded rows of unique values, each one writer's to delete
	writerBase   = int64(1) << 32 // writer w's values: writerBase + w<<32 + its sequence number
)

// bOf is b's value on a row whose a is v. It keeps order, and a bound maps
// like a value, so [bOf(lo), bOf(hi)) on b selects the rows [lo, hi) does on a.
func bOf(v int64) int64 {
	if v == math.MinInt64 {
		return v
	}
	return 2*v + 1
}

// ledger is what one writer committed: the rows it inserted and deleted, and
// the a-sum they add to the table.
type ledger struct {
	inserted, deleted int
	sum               int64
}

// runConcurrentProgram races 3 writers, 2 readers and a goroutine of manual
// idle windows over two phases, then 4 readers and the idle windows alone,
// with quiesce points between. The schedule classes it runs:
//
//   - readers against inserts and deletes: readers select both columns on the
//     stable band, exactly, while writers insert batches of 1-8 rows above
//     both bands and IN-delete their own buffered and merged rows, their share
//     of the victim band and values never present;
//   - readers against inline cap merges: at shards 1 each writer ends a phase
//     with shard.DefaultIngestCap more inserts after its last delete, so some
//     insert lands a queue on a multiple of the cap and merges it inline;
//     with no idle pool, fewer ops buffered than written proves one ran;
//   - readers against idle cracks and merges: the windows run the tuner's
//     cracks and merges under holistic (and its AutoIdle pool at shards 3)
//     and force a review under online, which builds and drops full indexes;
//   - fan-out workers against writers: at shards 8 the load is large enough
//     that a first touch or a scan fans out (costmodel.FanOutMinWork), and
//     phase 0's selects must start fan-out workers. Offline builds its full
//     indexes only after phase 0, so its phase 0 scans;
//   - Table.countSum's repeat: inserts publish and DELETEs apply during the
//     readers' selects. The exact check of a read that spans both, on rows the
//     writers touch, is the selectRacesWrites pair's (inline_test.go).
//
// At every quiesce point both columns' full-range count and sum and
// Table.Rows must equal the writers' replayed ledgers, before and after
// MergePending, which must leave nothing buffered; at the end every column
// must validate, and a cracking strategy's columns must be cracked.
func runConcurrentProgram(t *testing.T, cfg Config) {
	const writers, victims, phases = 3, 16, 2 // victims: each writer's share
	n, writes, queries := 6000, 40, 25
	if testing.Short() {
		n, writes, queries = 2000, 15, 10
	}
	if cfg.Shards == 8 {
		n = 80_000 // 70 000 rows off the largest part: past costmodel.FanOutMinWork
	}
	if cfg.Strategy == StrategyHolistic && cfg.Shards == 3 {
		cfg.AutoIdle, cfg.IdleWorkers = true, 2
	}
	rng := rand.New(rand.NewPCG(uint64(cfg.Shards), uint64(cfg.Strategy)))
	stable := randomVals(rng, n, stableDomain)
	a := append([]int64{}, stable...)
	for i := range writers * victims {
		a = append(a, victimBase+int64(i))
	}
	rng.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
	b := make([]int64, len(a))
	loadRows, loadSum := len(a), int64(0)
	for i, v := range a {
		b[i] = bOf(v)
		loadSum += v
	}
	slices.Sort(stable)
	pre := make([]int64, len(stable)+1)
	for i, v := range stable {
		pre[i+1] = pre[i] + v
	}
	stableCountSum := func(lo, hi int64) (int, int64) { // the model on [lo, hi) within the stable band
		i, _ := slices.BinarySearch(stable, lo)
		j, _ := slices.BinarySearch(stable, max(lo, hi))
		return j - i, pre[j] - pre[i]
	}

	e := New(cfg)
	defer e.Close()
	tab, err := e.CreateTable("R")
	if err != nil {
		t.Fatal(err)
	}
	names := [2]string{"a", "b"}
	var cols [2]*shard.Column
	for c, vals := range [][]int64{a, b} {
		if err := tab.AddColumnFromSlice(names[c], vals); err != nil {
			t.Fatal(err)
		}
		cols[c], _ = e.column("R", names[c])
	}
	// check compares both columns' full range and Table.Rows with the load
	// plus every writer's replayed ledger.
	ledgers := make([]ledger, writers)
	check := func(when string) {
		t.Helper()
		rows, sum := loadRows, loadSum
		for _, l := range ledgers {
			rows, sum = rows+l.inserted-l.deleted, sum+l.sum
		}
		for c, ws := range []int64{sum, 2*sum + int64(rows)} {
			res, err := e.Select("R", names[c], math.MinInt64, math.MaxInt64)
			if err != nil || res.Count != rows || res.Sum != ws {
				t.Fatalf("%s: select %s [MinInt64, MaxInt64) = %d/%d, %v; model %d/%d", when, names[c], res.Count, res.Sum, err, rows, ws)
			}
		}
		if tab.Rows() != rows {
			t.Fatalf("%s: Rows() = %d, model %d", when, tab.Rows(), rows)
		}
	}

	own := make([][]int64, writers) // each writer's live rows' a, oldest first
	seq := make([]int64, writers)   // each writer's last value drawn
	spent := make([]int, writers)   // each writer's victims deleted
	for phase := 0; phase <= phases; phase++ {
		opsBefore := 0
		for _, l := range ledgers {
			opsBefore += l.inserted + l.deleted
		}
		var fanned [2]*atomic.Int64
		if phase == 0 {
			for c, sc := range cols {
				fanned[c] = countFanOut(sc)
			}
		}
		var writing, reading, idling sync.WaitGroup
		var writersDone, readersDone atomic.Bool
		firstRead, first := make(chan struct{}), sync.Once{}
		for w := range writers * min(phases-phase, 1) {
			writing.Add(1)
			go func() {
				defer writing.Done()
				wrng := rand.New(rand.NewPCG(uint64(w), uint64(phase)))
				l := &ledgers[w]
				fresh := func() int64 {
					seq[w]++
					return writerBase + int64(w)<<32 + seq[w]
				}
				insert := func() bool {
					batch := make([][]int64, 1+wrng.IntN(8))
					for j := range batch {
						v := fresh()
						batch[j] = []int64{v, bOf(v)}
					}
					if _, err := tab.InsertRows(batch); err != nil {
						t.Errorf("phase %d, writer %d: insert of %d rows: %v", phase, w, len(batch), err)
						return false
					}
					for _, r := range batch {
						own[w] = append(own[w], r[0])
						l.inserted, l.sum = l.inserted+1, l.sum+r[0]
					}
					return true
				}
				for i := range writes {
					if !insert() {
						return
					}
					if i%3 != 2 {
						continue
					}
					var values, hit []int64
					for range 1 + wrng.IntN(4) {
						switch k := wrng.IntN(4); {
						case k < 2 && len(own[w]) > 0: // a recent row, likely buffered, or any
							j := []int{len(own[w]) - 1 - wrng.IntN(min(len(own[w]), 8)), wrng.IntN(len(own[w]))}[k]
							hit = append(hit, own[w][j])
							own[w] = slices.Delete(own[w], j, j+1)
						case k == 2 && spent[w] < victims:
							hit = append(hit, victimBase+int64(w*victims+spent[w]))
							spent[w]++
						default: // a value never present
							values = append(values, fresh())
						}
					}
					values = append(values, hit...)
					wrng.Shuffle(len(values), func(i, j int) { values[i], values[j] = values[j], values[i] })
					got, err := tab.DeleteWhereIn("a", values)
					if err != nil || got != len(hit) {
						t.Errorf("phase %d, writer %d: delete where a in %v: %d, %v; model deletes %d", phase, w, values, got, err, len(hit))
						return
					}
					for _, v := range hit {
						l.deleted, l.sum = l.deleted+1, l.sum-v
					}
				}
				if cfg.Shards == 1 { // a cap's worth after the last delete
					for end := l.inserted + shard.DefaultIngestCap; l.inserted < end; {
						if !insert() {
							return
						}
					}
				}
			}()
		}
		readers := 2
		if phase == phases {
			readers = 4
		}
		for r := range readers {
			reading.Add(1)
			go func() {
				defer reading.Done()
				qrng := rand.New(rand.NewPCG(uint64(r)+10, uint64(phase)))
				for i := 0; i < queries || !writersDone.Load(); i++ {
					// Empty, inverted, plain or from MinInt64, all below the victim band.
					lo := qrng.Int64N(stableDomain+8) - 4
					hi := []int64{lo, lo - 1 - qrng.Int64N(stableDomain), min(lo+1+qrng.Int64N(stableDomain/32), stableDomain)}[min(qrng.IntN(8), 2)]
					if qrng.IntN(5) == 0 {
						lo = math.MinInt64
					}
					c := i % 2
					wc, ws := stableCountSum(lo, hi)
					if c == 1 {
						lo, hi, ws = bOf(lo), bOf(hi), 2*ws+int64(wc)
					}
					res, err := e.Select("R", names[c], lo, hi)
					first.Do(func() { close(firstRead) })
					if err != nil || res.Count != wc || res.Sum != ws {
						t.Errorf("phase %d, reader %d: select %s [%d, %d) = %d/%d, %v; model %d/%d", phase, r, names[c], lo, hi, res.Count, res.Sum, err, wc, ws)
						return
					}
					time.Sleep(50 * time.Microsecond) // pacing: readers that never pause starve the writers on two cores
				}
			}()
		}
		idling.Add(1)
		go func() { // a column's first touch is a select's, so phase 0's fans out
			defer idling.Done()
			<-firstRead
			irng := rand.New(rand.NewPCG(99, uint64(phase)))
			for !readersDone.Load() {
				e.IdleActions(1 + irng.IntN(8))
				time.Sleep(100 * time.Microsecond) // pacing: without a tuner or a review a window returns at once
			}
		}()
		writing.Wait()
		writersDone.Store(true)
		reading.Wait()
		readersDone.Store(true)
		first.Do(func() { close(firstRead) })
		idling.Wait()
		if t.Failed() {
			t.FailNow()
		}

		if phase == 0 {
			for _, sc := range cols {
				sc.SetSelectHook(nil)
			}
			if got := fanned[0].Load() + fanned[1].Load(); cfg.Shards == 8 && got == 0 {
				t.Fatalf("phase 0: no select of the %d-row load started a fan-out worker", loadRows)
			}
		}
		// Without an idle pool only an inline merge drains the queues, and
		// each column buffers one entry per row inserted or deleted.
		if cfg.Shards == 1 && e.runner == nil && phase < phases {
			ops := -opsBefore
			for _, l := range ledgers {
				ops += l.inserted + l.deleted
			}
			if pending := tab.PendingOps(); pending >= 2*ops {
				t.Fatalf("phase %d: %d ops buffered of the %d written to two columns: no inline merge ran", phase, pending, 2*ops)
			}
		}
		check(fmt.Sprintf("phase %d's quiesce", phase))
		e.MergePending()
		check(fmt.Sprintf("phase %d's merge", phase))
		if pending := tab.PendingOps(); pending != 0 {
			t.Fatalf("phase %d: %d ops still buffered after MergePending", phase, pending)
		}
		if phase == 0 && cfg.Strategy == StrategyOffline {
			for _, name := range names {
				if _, err := e.BuildFullIndex("R", name); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	validateColumns(t, e, names)
	if cfg.Strategy.Capabilities().IncrementalIndexing {
		for c, sc := range cols {
			if pieces, _ := sc.PieceStats(); !sc.AnyCracked() || pieces < 2*cfg.Shards {
				t.Fatalf("column %s: cracked %v, %d pieces over %d parts after the readers", names[c], sc.AnyCracked(), pieces, cfg.Shards)
			}
		}
	}
}
