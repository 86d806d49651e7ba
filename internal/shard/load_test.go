package shard

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"holistic/internal/costmodel"
	"holistic/internal/scan"
)

// TestNewColumnStripesAndBounds loads columns of every length around the
// stripe and chunk edges — serial below costmodel.FanOutMinWork values, one
// chunk per GOMAXPROCS worker at 1<<20+5 (run it with -cpu 1,2,4) — and
// checks that every part holds exactly its stripe with the bounds a scan of
// it gives, that no part has tombstones, and that the parts lie in vals'
// memory one after the other, each with no spare capacity.
func TestNewColumnStripesAndBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(45, 1))
	for _, n := range []int{1, 2, 3, 8} {
		for _, length := range []int{0, 1, n - 1, n + 1, costmodel.FanOutMinWork - 1, costmodel.FanOutMinWork + 3, 1<<20 + 5} {
			t.Run(fmt.Sprintf("shards=%d/len=%d", n, length), func(t *testing.T) {
				vals := make([]int64, length)
				for i := range vals {
					vals[i] = int64(rng.Uint64())
				}
				if length > 0 {
					// The type's edges, in one part each unless the column is
					// shorter than a stripe.
					vals[length-1], vals[length/2] = math.MinInt64, math.MaxInt64
				}
				want := slices.Clone(vals)
				c, err := NewColumn("R.A", vals, Config{Shards: n})
				if err != nil {
					t.Fatal(err)
				}
				if c.Shards() != n || c.Rows() != length {
					t.Fatalf("%d parts over %d rows, want %d over %d", c.Shards(), c.Rows(), n, length)
				}
				at := 0 // where part i starts in vals' memory
				for i, p := range c.Parts() {
					var stripe []int64
					for g := i; g < length; g += n {
						stripe = append(stripe, want[g])
					}
					if !slices.Equal(p.vals, stripe) {
						t.Fatalf("part %d holds %d values that are not vals[%d::%d] (%d values)", i, len(p.vals), i, n, len(stripe))
					}
					lo, hi, ok := scan.MinMax(p.vals)
					if glo, ghi, gok := bounds(p); gok != ok || glo != lo || ghi != hi {
						t.Fatalf("part %d: bounds %d,%d,%v, a scan gives %d,%d,%v", i, glo, ghi, gok, lo, hi, ok)
					}
					if p.deleted != nil || p.nDeleted != 0 {
						t.Fatalf("part %d: a load allocated %d tombstones", i, len(p.deleted))
					}
					if len(p.vals) > 0 && &p.vals[0] != &vals[at] || cap(p.vals) != len(p.vals) {
						t.Fatalf("part %d of %d is not vals[%d:%d] with no spare capacity", i, n, at, at+len(p.vals))
					}
					at += len(p.vals)
				}
			})
		}
	}
}

// TestLazyTombstones follows a part's tombstones through load, insert,
// delete, merge, snapshot and restore: they appear only when the part's
// first delete merges, grow with its later inserts, and are encoded as one
// flag per row either way; a restored part that has no dead row allocates
// none, and every restored part has its bounds back.
func TestLazyTombstones(t *testing.T) {
	vals := randomVals(rand.New(rand.NewPCG(45, 2)), 1000, 1<<20)
	c, err := NewColumn("R.A", slices.Clone(vals), Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(c *Column, want ...bool) {
		t.Helper()
		for i, p := range c.Parts() {
			if got := p.deleted != nil; got != want[i] {
				t.Fatalf("part %d: tombstones allocated %v, want %v", i, got, want[i])
			}
			if p.deleted != nil && len(p.deleted) != len(p.vals) {
				t.Fatalf("part %d: %d tombstones for %d rows", i, len(p.deleted), len(p.vals))
			}
		}
	}
	allocated(c, false, false, false)
	for g := uint32(1000); g < 1010; g++ {
		c.AppendAt(g, int64(g))
	}
	c.MergePending()
	allocated(c, false, false, false)

	c.DeleteRow(4) // part 1
	allocated(c, false, false, false)
	c.MergePending()
	allocated(c, false, true, false)
	for g := uint32(1010); g < 1020; g++ {
		c.AppendAt(g, int64(g))
	}
	c.MergePending()
	allocated(c, false, true, false)

	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i, ps := range snap.Parts {
		dead := 0
		for _, d := range ps.Deleted {
			if d {
				dead++
			}
		}
		if len(ps.Deleted) != len(ps.Vals) || dead != c.Parts()[i].nDeleted {
			t.Fatalf("snapshot part %d: %d flags (%d set) for %d rows", i, len(ps.Deleted), dead, len(ps.Vals))
		}
	}
	r, err := NewColumnFromSnapshot(snap, Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	allocated(r, false, true, false)
	for i, p := range r.Parts() {
		lo, hi, ok := bounds(p)
		if wlo, whi, wok := bounds(c.Parts()[i]); lo != wlo || hi != whi || ok != wok {
			t.Fatalf("restored part %d bounds %d,%d,%v, the column had %d,%d,%v", i, lo, hi, ok, wlo, whi, wok)
		}
	}
	if r.Live() != c.Live() || r.Live() != 1019 {
		t.Fatalf("restored %d live rows, the column had %d, want 1019", r.Live(), c.Live())
	}
	for _, q := range [][2]int64{{0, 1 << 20}, {vals[4], vals[4] + 1}, {1000, 1020}} {
		wc, ws := c.FanOutCountSum(func(p *Part) (int, int64) { return p.ScanCountSum(q[0], q[1]) })
		gc, gs := r.FanOutCountSum(func(p *Part) (int, int64) { return p.CrackedSelect(q[0], q[1]) })
		if gc != wc || gs != ws {
			t.Fatalf("[%d,%d): restored %d/%d, want %d/%d", q[0], q[1], gc, gs, wc, ws)
		}
	}
	if g, ok := r.FirstLive(vals[4]); ok && g == 4 {
		t.Fatal("the restored column resolves a delete to the dead row 4")
	}
}

// BenchmarkNewColumn times loading an 8M-row column — cold_crack's set-up —
// into one part (adopted: the pass reads for bounds only) and into two
// (striped into fresh arrays). Each iteration loads a fresh clone made off
// the clock.
func BenchmarkNewColumn(b *testing.B) {
	const n = 8 << 20
	vals := randomVals(rand.New(rand.NewPCG(1, 2)), n, 1<<40)
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.SetBytes(n * 8)
			b.ReportAllocs()
			for range b.N {
				b.StopTimer()
				v := slices.Clone(vals)
				b.StartTimer()
				if _, err := NewColumn("R.A", v, Config{Shards: shards}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
