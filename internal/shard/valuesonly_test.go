package shard

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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

// TestAttachRowsRacesCracks runs a column's first DELETE — which attaches
// row ids to every part's values-only copy and so replaces its arrays —
// while selects crack the same parts and RandomCrack refines them. The
// attach holds each part's exclusive latch, so no crack reads an array it
// replaces (-race sees one that does), every select answers exactly, and
// afterwards every part has row ids and passes Validate.
func TestAttachRowsRacesCracks(t *testing.T) {
	const n, domain, workers = 20000, 1 << 30, 4
	vals := randomVals(rand.New(rand.NewPCG(61, 3)), n, domain)
	const gone = domain + 7 // the value deleted, above every select's range
	vals[n/2] = gone
	c, err := NewColumn("R.A", slices.Clone(vals), Config{Shards: 2, radixMin: 256})
	if err != nil {
		t.Fatal(err)
	}
	c.FanOutCountSum(func(p *Part) (int, int64) { return p.CrackedSelect(0, domain/2) })
	for _, p := range c.Parts() {
		if !p.valuesOnly() {
			t.Fatalf("part %d: no values-only copy before the delete", p.id)
		}
	}
	var steps atomic.Int64
	stop := make(chan struct{})
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 61))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				steps.Add(1)
				if w%2 == 1 {
					c.Parts()[i%2].RandomCrack(rng)
					continue
				}
				lo := rng.Int64N(domain)
				hi := min(lo+rng.Int64N(domain/64)+1, domain)
				count, sum := c.FanOutCountSum(func(p *Part) (int, int64) { return p.CrackedSelect(lo, hi) })
				if wc, ws := naiveRange(vals, lo, hi); count != wc || sum != ws {
					errs <- fmt.Errorf("[%d,%d): got %d/%d want %d/%d", lo, hi, count, sum, wc, ws)
					return
				}
			}
		}()
	}
	waitSteps := func(k int64) {
		for target := steps.Load() + k; steps.Load() < target; {
			runtime.Gosched()
		}
	}
	waitSteps(4 * workers)
	g, ok := c.FirstLive(gone)
	if !ok || g != n/2 {
		t.Errorf("FirstLive(%d) = %d, %v; want row %d", gone, g, ok, n/2)
	}
	c.DeleteRow(g)
	waitSteps(4 * workers)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	c.MergePending()
	for _, p := range c.Parts() {
		if p.valuesOnly() {
			t.Errorf("part %d: still values-only after the delete", p.id)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("part %d: %v", p.id, err)
		}
	}
	if _, ok := c.FirstLive(gone); ok {
		t.Errorf("value %d still live after its only row was deleted", int64(gone))
	}
}

// TestCorruptCopyRefused: a snapshot stores no row ids, so a corrupt
// snapshot can only hold a wrong copy, and each fault is refused. A copy
// of another length than the live rows fails restore. A copy with one
// value changed inside its piece's bounds passes restore (its length and
// the index's own invariants hold), and the first attach of its row ids
// refuses it — the value of a tombstoned row, of another part's row, a
// value twice, a value no row holds — naming the part and leaving the copy
// values-only, so no delete resolves through it. A copy whose values are
// right but whose row ids name other rows cannot come from a file any
// more; Validate still refuses it in a live part.
func TestCorruptCopyRefused(t *testing.T) {
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
	if g != 6 {
		t.Fatalf("the delete took row %d, want 6", g)
	}
	c.DeleteRow(g)
	c.MergePending()
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewColumnFromSnapshot(snap, cfg); err != nil {
		t.Fatalf("a valid snapshot: %v", err)
	}
	// Part 0 holds the even rows; its first piece holds the values below 10.
	p0 := snap.Parts[0]
	at := func(v int64) int { return slices.Index(p0.CrackVals, v) }
	for _, tc := range []struct {
		name    string
		corrupt func(cv []int64)
	}{
		{"a tombstoned row's value", func(cv []int64) { cv[at(8)] = 6 }},
		{"another part's value", func(cv []int64) { cv[at(8)] = 9 }},
		{"a value twice", func(cv []int64) { cv[at(2)] = 4 }},
		{"a value no row holds", func(cv []int64) { cv[at(8)] = -1 }},
	} {
		bad := snap
		bad.Parts = slices.Clone(snap.Parts)
		bad.Parts[0].CrackVals = slices.Clone(p0.CrackVals)
		tc.corrupt(bad.Parts[0].CrackVals)
		r, err := NewColumnFromSnapshot(bad, cfg)
		if err != nil {
			t.Fatalf("%s: refused at restore, want at the first attach: %v", tc.name, err)
		}
		before := slices.Clone(r.Parts()[0].Cracked().AppendValues(nil))
		err = r.AttachRows()
		if err == nil {
			t.Errorf("%s: row ids attached", tc.name)
		} else if !strings.Contains(err.Error(), "t.a#0") || strings.Contains(err.Error(), "t.a#1") {
			t.Errorf("%s: the error does not name part 0 alone: %v", tc.name, err)
		}
		if ix := r.Parts()[0].Cracked(); ix.HasRows() || !slices.Equal(ix.AppendValues(nil), before) {
			t.Errorf("%s: a refused attach changed the copy", tc.name)
		}
	}

	// A copy must hold as many values as the part has live rows.
	for name, cv := range map[string][]int64{
		"one value short":    p0.CrackVals[:len(p0.CrackVals)-1],
		"one value too many": append(slices.Clone(p0.CrackVals), 1<<40),
	} {
		bad := snap
		bad.Parts = slices.Clone(snap.Parts)
		bad.Parts[0].CrackVals = cv
		if _, err := NewColumnFromSnapshot(bad, cfg); err == nil || !strings.Contains(err.Error(), "t.a#0") {
			t.Errorf("%s: restore gave %v, want an error naming the part", name, err)
		}
	}

	// Row ids naming other rows are refused by Validate.
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

// TestRestoreThenDelete: a column whose copies had row ids before the
// snapshot restores values-only; its first delete resolves the row a scan
// of the model names and attaches row ids on every part, and every answer
// is exact before and after.
func TestRestoreThenDelete(t *testing.T) {
	const n, domain = 3000, 500
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(shards), 53))
			m := &rowModel{a: randomVals(rng, n, domain), dead: make([]bool, n)}
			cfg := Config{Shards: shards, radixMin: 256}
			c, err := NewColumn("t.a", slices.Clone(m.a), cfg)
			if err != nil {
				t.Fatal(err)
			}
			answers := func(stage string, c *Column) {
				t.Helper()
				if err := c.Validate(); err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
				for q := 0; q < 20; q++ {
					lo := rng.Int64N(domain)
					hi := lo + rng.Int64N(domain/4) + 1
					gc, gs := c.CountSum(lo, hi, updates.AllRows, (*Part).ProbeAt, (*Part).CrackedSelectAt)
					if wc, ws := m.countSum(m.a, lo, hi); gc != wc || gs != ws {
						t.Fatalf("%s: [%d, %d): %d/%d, a scan gives %d/%d", stage, lo, hi, gc, gs, wc, ws)
					}
				}
			}
			hasRows := func(c *Column) (with, without int) {
				for _, p := range c.Parts() {
					p.RLock()
					if p.Cracked().HasRows() {
						with++
					} else {
						without++
					}
					p.RUnlock()
				}
				return with, without
			}
			deleteOne := func(c *Column) {
				t.Helper()
				v := m.a[rng.IntN(n)]
				if err := c.AttachRows(); err != nil {
					t.Fatal(err)
				}
				g, ok := c.FirstLive(v)
				if wg, wok := m.firstLive(m.a, v); ok != wok || g != wg {
					t.Fatalf("FirstLive(%d) = %d/%v, a scan gives %d/%v", v, g, ok, wg, wok)
				}
				if ok {
					c.DeleteRow(g)
					m.dead[g] = true
				}
				c.MergePending()
			}

			answers("load", c)
			deleteOne(c)
			if with, without := hasRows(c); without != 0 {
				t.Fatalf("before the snapshot: %d parts with row ids, %d without", with, without)
			}
			answers("a delete", c)
			snap, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewColumnFromSnapshot(snap, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if with, _ := hasRows(r); with != 0 {
				t.Fatalf("restored: %d parts with row ids", with)
			}
			answers("restored", r)
			deleteOne(r)
			if with, without := hasRows(r); without != 0 {
				t.Fatalf("after the first delete: %d parts with row ids, %d without", with, without)
			}
			answers("restored, a delete", r)
		})
	}
}
