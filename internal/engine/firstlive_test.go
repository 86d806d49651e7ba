package engine

// Differential test for index-resolved DELETE: shard.Column.FirstLive — a
// binary search with a sorted index, one cracked piece with a cracker index,
// an early-exit scan with neither — against a reference scan of a model
// table, under every strategy and shard count, in every pending-update state
// a row can be in.

import (
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

// modelRow is one row of the reference table; its index is the row id.
type modelRow struct {
	vals [2]int64 // columns A, B
	live bool
}

// refFirstLive is the reference: scan the model in row order.
func refFirstLive(rows []modelRow, col int, v int64) (uint32, bool) {
	for g, r := range rows {
		if r.live && r.vals[col] == v {
			return uint32(g), true
		}
	}
	return 0, false
}

func refCountSum(rows []modelRow, col int, lo, hi int64) (count int, sum int64) {
	for _, r := range rows {
		if v := r.vals[col]; r.live && v >= lo && v < hi {
			count++
			sum += v
		}
	}
	return count, sum
}

func TestFirstLiveMatchesReferenceScan(t *testing.T) {
	const (
		n      = 2000
		domain = int64(64) // ~30 duplicates per value in A, ~285 in B
		bMod   = int64(7)
		fresh  = int64(20) // inserted-only values live in [domain, domain+fresh)
		rounds = 3
		ops    = 150
	)
	colNames := [2]string{"A", "B"}

	for _, shards := range []int{1, 2, 8} {
		for _, vr := range strategiesUnderTest {
			t.Run(vr.name+"/shards="+strconv.Itoa(shards), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(1501, uint64(shards)))
				e := New(Config{
					Strategy:        vr.s,
					Seed:            31,
					TargetPieceSize: 16,
					Shards:          shards,
				})
				defer e.Close()
				tab, err := e.CreateTable("R")
				if err != nil {
					t.Fatal(err)
				}
				model := make([]modelRow, n)
				a, b := make([]int64, n), make([]int64, n)
				for i := range model {
					a[i] = rng.Int64N(domain)
					b[i] = a[i] % bMod
					model[i] = modelRow{vals: [2]int64{a[i], b[i]}, live: true}
				}
				// The ends of the value domain, duplicated: v+1 must not wrap.
				for _, g := range []int{3, 1200} {
					a[g], model[g].vals[0] = math.MaxInt64, math.MaxInt64
					a[g+1], model[g+1].vals[0] = math.MinInt64, math.MinInt64
				}
				if err := tab.AddColumnFromSlice("A", a); err != nil {
					t.Fatal(err)
				}
				if err := tab.AddColumnFromSlice("B", b); err != nil {
					t.Fatal(err)
				}

				probes := []int64{math.MinInt64, math.MinInt64 + 1, -1, math.MaxInt64 - 1, math.MaxInt64}
				for v := int64(0); v < domain+fresh+rounds+1; v++ {
					probes = append(probes, v)
				}
				check := func(stage string) {
					t.Helper()
					for c, name := range colNames {
						sc, err := e.column("R", name)
						if err != nil {
							t.Fatal(err)
						}
						for _, v := range probes {
							want, wantOK := refFirstLive(model, c, v)
							got, ok := sc.FirstLive(v)
							if ok != wantOK || got != want {
								t.Fatalf("%s: FirstLive(%s = %d) = (%d, %v), reference scan says (%d, %v)",
									stage, name, v, got, ok, want, wantOK)
							}
						}
					}
				}
				insert := func(v int64) {
					t.Helper()
					row, err := tab.InsertRow(v, v%bMod)
					if err != nil {
						t.Fatal(err)
					}
					if int(row) != len(model) {
						t.Fatalf("insert got row %d, model expects %d", row, len(model))
					}
					model = append(model, modelRow{vals: [2]int64{v, v % bMod}, live: true})
				}
				del := func(c int, v int64) {
					t.Helper()
					want, wantOK := refFirstLive(model, c, v)
					ok, err := tab.DeleteWhere(colNames[c], v)
					if err != nil {
						t.Fatal(err)
					}
					if ok != wantOK {
						t.Fatalf("DeleteWhere(%s = %d) = %v, reference scan says %v", colNames[c], v, ok, wantOK)
					}
					if ok {
						model[want].live = false
					}
				}
				sel := func(c int, lo, hi int64) {
					t.Helper()
					res, err := e.Select("R", colNames[c], lo, hi)
					if err != nil {
						t.Fatal(err)
					}
					if wc, ws := refCountSum(model, c, lo, hi); res.Count != wc || res.Sum != ws {
						t.Fatalf("select %s [%d,%d) = %d/%d, model says %d/%d", colNames[c], lo, hi, res.Count, res.Sum, wc, ws)
					}
				}

				// No index anywhere yet: every part answers by the fallback scan.
				check("loaded, never cracked")

				if vr.s == StrategyOffline {
					for _, name := range colNames {
						if _, err := e.BuildFullIndex("R", name); err != nil {
							t.Fatal(err)
						}
					}
				}
				// Cracks (adaptive, holistic); the online review closes
				// its 100-query epoch and builds both columns' indexes.
				for i := 0; i < 100; i++ {
					lo := rng.Int64N(domain)
					sel(i%2, lo, lo+1+rng.Int64N(8))
				}
				e.IdleActions(40)
				check("indexed")

				for r := 0; r < rounds; r++ {
					// Scripted: an annihilated pair below a live buffered duplicate,
					// and a buffered delete of a merged row with merged duplicates.
					h := domain + fresh + int64(r)
					insert(h)
					insert(h)
					del(0, h)
					del(0, int64(r))
					for i := 0; i < ops; i++ {
						switch p := rng.IntN(100); {
						case p < 35:
							insert(rng.Int64N(domain + fresh))
						case p < 70:
							del(0, rng.Int64N(domain+fresh))
						case p < 80:
							del(1, rng.Int64N(bMod))
						case p < 95:
							lo := rng.Int64N(domain+fresh) - 2
							sel(rng.IntN(2), lo, lo+1+rng.Int64N(8))
						default:
							e.IdleActions(2) // holistic: cracks and partial merges mid-round
						}
					}
					check("round " + strconv.Itoa(r) + ", updates buffered")
					tab.MergePending()
					check("round " + strconv.Itoa(r) + ", merged")
				}
				for _, name := range colNames {
					sc, _ := e.column("R", name)
					if err := sc.Validate(); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}
