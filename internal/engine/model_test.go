package engine

// The engine's sequential model test: seeded programs run against every
// strategy at shards {1, 3, 8} beside a model of table R(a, b) — its rows in
// row order, each live or not, where a delete kills the lowest live row
// holding its value (modelRow, refFirstLive and refCountSum come from
// firstlive_test.go). Column a draws from a small domain, so values repeat;
// column b is the row id, distinct per row, so a delete that kills the
// wrong row, or skips a column, shows in b's sums.

import (
	"errors"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

func TestEngineMatchesModel(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		for _, st := range strategiesUnderTest {
			for _, n := range []int{0, 2000} {
				t.Run(st.name+"/shards="+strconv.Itoa(shards)+"/rows="+strconv.Itoa(n), func(t *testing.T) {
					runModelProgram(t, Config{Strategy: st.s, Seed: 3, TargetPieceSize: 16, Shards: shards}, n)
				})
			}
		}
	}
}

// runModelProgram loads n rows and runs one seeded program of 300 ops. After
// every op both columns' count and sum and Table.Rows must match the model;
// at the end every column, merged, must validate.
func runModelProgram(t *testing.T, cfg Config, n int) {
	const domain = int64(48) // ~40 rows a value in a 2 000-row load
	rng := rand.New(rand.NewPCG(uint64(cfg.Shards), uint64(cfg.Strategy)<<16|uint64(n)))
	e := New(cfg)
	defer e.Close()
	tab, err := e.CreateTable("R")
	if err != nil {
		t.Fatal(err)
	}
	names := [2]string{"a", "b"}
	var rows []modelRow
	aValue := func() int64 { // mostly the small domain, sometimes an end of int64
		return []int64{math.MinInt64, math.MaxInt64, rng.Int64N(domain)}[min(rng.IntN(32), 2)]
	}
	a, b := make([]int64, n), make([]int64, n)
	for g := range a {
		a[g], b[g] = aValue(), int64(g)
		rows = append(rows, modelRow{vals: [2]int64{a[g], b[g]}, live: true})
	}
	for c, vals := range [][]int64{a, b} {
		if err := tab.AddColumnFromSlice(names[c], vals); err != nil {
			t.Fatal(err)
		}
	}

	op := "the load"
	sel := func(c int, lo, hi int64) {
		t.Helper()
		res, err := e.Select("R", names[c], lo, hi)
		if wc, ws := refCountSum(rows, c, lo, hi); err != nil || res.Count != wc || res.Sum != ws {
			t.Fatalf("after %s: select %s [%d, %d) = %d/%d, %v; model %d/%d", op, names[c], lo, hi, res.Count, res.Sum, err, wc, ws)
		}
	}
	check := func() {
		t.Helper()
		sel(0, math.MinInt64, math.MaxInt64)
		sel(1, math.MinInt64, math.MaxInt64) // every row: b is its row id
		if live, _ := refCountSum(rows, 1, math.MinInt64, math.MaxInt64); tab.Rows() != live {
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
		sel(c, 2, 2) // empty
		sel(c, 3, 1) // inverted
	}
	for i := 0; i < 300; i++ {
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
			sel(c, lo, hi)
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
