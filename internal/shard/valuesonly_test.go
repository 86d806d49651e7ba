package shard

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"holistic/internal/core"
	"holistic/internal/updates"
)

// rowModel is a table of two row-aligned columns as a plain slice: row g
// holds a[g] and b[g] unless dead[g].
type rowModel struct {
	a, b []int64
	dead []bool
}

func (m *rowModel) countSum(col []int64, lo, hi int64) (count int, sum int64) {
	for g, v := range col {
		if !m.dead[g] && v >= lo && v < hi {
			count, sum = count+1, sum+v
		}
	}
	return count, sum
}

// firstLive is the lowest live row holding v in col.
func (m *rowModel) firstLive(col []int64, v int64) (uint32, bool) {
	for g, x := range col {
		if !m.dead[g] && x == v {
			return uint32(g), true
		}
	}
	return 0, false
}

// partStrategy is what a strategy does to a part: how a select declined by
// the probe runs, whether idle cracks refine it, and whether it holds a
// full index before the delete.
type partStrategy struct {
	name   string
	run    func(p *Part, lo, hi, vis int64) (int, int64)
	idle   bool
	sorted bool
}

var partStrategies = []partStrategy{
	{"scan", (*Part).ScanCountSumAt, false, false},
	{"offline", (*Part).ScanCountSumAt, false, true},
	{"online", (*Part).ScanCountSumAt, false, true},
	{"adaptive", (*Part).CrackedSelectAt, false, false},
	{"holistic", (*Part).CrackedSelectAt, true, false},
}

// TestValuesOnlyUntilFirstDelete drives two row-aligned columns, a and b,
// through what each strategy does to its parts — load, selects, idle cracks,
// merged inserts, a full index built and dropped — and checks that no
// cracked or sorted copy carries row ids until a DELETE resolves through
// column a: then a's indexed parts have them and b's still do not. Validate
// passes and every answer equals a scan of the model throughout.
func TestValuesOnlyUntilFirstDelete(t *testing.T) {
	const n, domain = 3000, 2000
	for _, shards := range []int{1, 3} {
		for _, st := range partStrategies {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, st.name), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(uint64(shards), 46))
				m := &rowModel{a: randomVals(rng, n, domain), b: randomVals(rng, n, domain), dead: make([]bool, n)}
				cfg := Config{Shards: shards, radixMin: 256}
				a, err := NewColumn("t.a", slices.Clone(m.a), cfg)
				if err != nil {
					t.Fatal(err)
				}
				b, err := NewColumn("t.b", slices.Clone(m.b), cfg)
				if err != nil {
					t.Fatal(err)
				}
				cols := []*Column{a, b}
				check := func(stage string, attachedA bool) {
					t.Helper()
					for ci, c := range cols {
						if err := c.Validate(); err != nil {
							t.Fatalf("%s: column %d: %v", stage, ci, err)
						}
						for _, p := range c.Parts() {
							p.RLock()
							ix := p.Cracked()
							attached := ix != nil && ix.Rows() != nil
							p.RUnlock()
							if want := ci == 0 && attachedA && ix != nil; attached != want {
								t.Fatalf("%s: part %s has row ids: %v, want %v", stage, p.Name(), attached, want)
							}
						}
					}
					for q := 0; q < 20; q++ {
						lo := rng.Int64N(domain)
						hi := lo + rng.Int64N(domain/4) + 1
						for ci, c := range cols {
							col := [][]int64{m.a, m.b}[ci]
							gc, gs := c.CountSum(lo, hi, updates.AllRows, (*Part).ProbeAt, st.run)
							if wc, ws := m.countSum(col, lo, hi); gc != wc || gs != ws {
								t.Fatalf("%s: column %d [%d, %d): %d/%d, a scan gives %d/%d", stage, ci, lo, hi, gc, gs, wc, ws)
							}
						}
					}
				}
				design := func() {
					if st.sorted {
						for _, c := range cols {
							c.BuildSorted()
						}
					}
				}

				if st.name == "offline" {
					design()
				}
				check("load and selects", false)
				if st.name == "online" {
					design()
					check("online build", false)
				}
				if st.idle {
					tu := core.NewTuner(core.Config{TargetPieceSize: 2, Seed: 1}, nil)
					for _, c := range cols {
						for _, p := range c.Parts() {
							tu.Register(p, 0, domain)
						}
					}
					if acts, _ := tu.RunActions(50); acts == 0 {
						t.Fatal("the tuner ran no idle action")
					}
					for _, c := range cols {
						for _, p := range c.Parts() {
							for range 8 {
								p.RandomCrack(rng)
							}
						}
					}
					check("idle cracks", false)
				}
				for k := 0; k < 300; k++ {
					g := uint32(len(m.a))
					va, vb := rng.Int64N(domain), rng.Int64N(domain)
					a.AppendAt(g, va)
					b.AppendAt(g, vb)
					m.a, m.b, m.dead = append(m.a, va), append(m.b, vb), append(m.dead, false)
				}
				a.MergePending()
				b.MergePending()
				check("merged inserts", false)
				for _, c := range cols {
					c.BuildSorted()
				}
				check("BuildSorted", false)
				for _, c := range cols {
					c.DropSorted()
				}
				check("DropSorted", false)
				design()
				check("design back", false)

				// One DELETE on column a, by value, as the engine resolves it.
				v := m.a[rng.IntN(len(m.a))]
				g, ok := a.FirstLive(v)
				if wg, wok := m.firstLive(m.a, v); ok != wok || g != wg {
					t.Fatalf("FirstLive(%d) = %d/%v, a scan gives %d/%v", v, g, ok, wg, wok)
				}
				a.DeleteRow(g)
				b.DeleteRow(g)
				m.dead[g] = true
				check("a delete, buffered", true)
				a.MergePending()
				b.MergePending()
				check("a delete, merged", true)
			})
		}
	}
}

// TestRestoreChecksRowIDs: a snapshot whose cracked copy names a row it
// cannot hold — a tombstoned row, a row of another part, a row twice, a row
// holding another value, a row past the part's end — or lacks one, or a
// values-only copy of another length than the live rows, is refused at
// restore, and Validate refuses a wrong copy in a live part.
func TestRestoreChecksRowIDs(t *testing.T) {
	cfg := Config{Shards: 2}
	vals := make([]int64, 400)
	for i := range vals {
		vals[i] = int64(i % 97)
	}
	c, err := NewColumn("t.a", slices.Clone(vals), cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.FanOutCountSum(func(p *Part) (int, int64) { return p.CrackedSelect(10, 50) })
	g, _ := c.FirstLive(vals[6]) // attaches row ids on both parts
	c.DeleteRow(g)
	c.MergePending()
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	p0 := snap.Parts[0]
	if len(p0.CrackRows) != len(p0.CrackVals) {
		t.Fatalf("part 0's snapshot has %d row ids for %d values", len(p0.CrackRows), len(p0.CrackVals))
	}
	if _, err := NewColumnFromSnapshot(snap, cfg); err != nil {
		t.Fatalf("a valid snapshot: %v", err)
	}
	if g != 6 {
		t.Fatalf("the delete took row %d, want 6", g)
	}
	// at returns the copy position of global row r in part 0's snapshot.
	at := func(r uint32) int { return slices.Index(p0.CrackRows, r) }
	for _, tc := range []struct {
		name    string
		corrupt func(rows []uint32) []uint32
	}{
		{"a tombstoned row", func(rows []uint32) []uint32 { rows[at(8)] = 6; return rows }},
		{"another part's row", func(rows []uint32) []uint32 { rows[at(8)] = 9; return rows }},
		{"a row twice", func(rows []uint32) []uint32 { rows[at(194)] = 0; return rows }}, // both hold 0
		{"another value", func(rows []uint32) []uint32 { rows[at(2)], rows[at(4)] = 4, 2; return rows }},
		{"a row past the part", func(rows []uint32) []uint32 { rows[at(8)] = 2 * uint32(len(vals)); return rows }},
		{"one row id short", func(rows []uint32) []uint32 { return rows[:len(rows)-1] }},
	} {
		bad := snap
		bad.Parts = slices.Clone(snap.Parts)
		bad.Parts[0].CrackRows = tc.corrupt(slices.Clone(p0.CrackRows))
		_, err := NewColumnFromSnapshot(bad, cfg)
		if err == nil {
			t.Errorf("%s: restored", tc.name)
		} else if !strings.Contains(err.Error(), "t.a#0") {
			t.Errorf("%s: the error does not name the part: %v", tc.name, err)
		}
	}

	// A values-only copy must hold as many values as the part has live rows.
	bad := snap
	bad.Parts = slices.Clone(snap.Parts)
	bad.Parts[0].CrackVals, bad.Parts[0].CrackRows = append(slices.Clone(p0.CrackVals), 1<<40), nil
	if _, err := NewColumnFromSnapshot(bad, cfg); err == nil {
		t.Error("a values-only copy with one value too many restored")
	}

	// The same check runs in Validate.
	p := c.Parts()[0]
	p.Lock()
	rows := p.Cracked().Rows()
	i, j := slices.Index(rows, 2), slices.Index(rows, 4)
	rows[i], rows[j] = rows[j], rows[i]
	p.Unlock()
	if err := p.Validate(); err == nil {
		t.Fatal("Validate passed a copy whose row ids name other values")
	}
}
