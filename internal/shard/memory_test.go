package shard

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"holistic/internal/cracker"
)

// TestPartGrowthSlack: a merge that outgrows the base moves it to an array
// of at most n + k + n/64 (n rows held, k merged), the tombstone bitmap
// still covering every row; merges that fit in that 1/64 then move nothing.
func TestPartGrowthSlack(t *testing.T) {
	const n, k = 200_000, 3000
	rng := rand.New(rand.NewPCG(52, 3))
	c, err := NewColumn("R.A", randomVals(rng, n, 1<<30), Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := c.Parts()[0]
	c.DeleteRow(7)
	c.MergePending()
	next := uint32(n)
	insert := func(k int) {
		for range k {
			c.AppendAt(next, rng.Int64N(1<<30))
			next++
		}
		c.MergePending()
	}
	insert(k)
	if got := cap(p.vals); got < n+k || got > n+k+n/64 {
		t.Fatalf("base capacity %d after merging %d rows into %d, want at most %d", got, k, n, n+k+n/64)
	}
	v0, c0 := &p.vals[0], cap(p.vals)
	insert(c0 - len(p.vals))
	if &p.vals[0] != v0 || len(p.vals) != c0 {
		t.Fatal("merges that fit the slack moved the base")
	}
	if len(p.deleted) != words(len(p.vals)) || !p.deadLocked(7) || p.nDeleted != 1 {
		t.Fatalf("%d tombstone words for %d rows, row 7 dead %v, %d dead", len(p.deleted), len(p.vals), p.deadLocked(7), p.nDeleted)
	}
}

// TestPartGrowthFloor: 100 000 single-row merges into a 100-row part move
// its base and tombstones O(log n) times; cracker.TestMergeGrowthFloor
// gives the arithmetic.
func TestPartGrowthFloor(t *testing.T) {
	const n0, merges, bound = 100, 100_000, 64
	rng := rand.New(rand.NewPCG(52, 4))
	c, err := NewColumn("R.A", randomVals(rng, n0, 1000), Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := c.Parts()[0]
	c.DeleteRow(3)
	c.MergePending()
	var vm, dm int // moves of the base and of its tombstones
	vc, dc := cap(p.vals), cap(p.deleted)
	for g := uint32(n0); g < n0+merges; g++ {
		c.AppendAt(g, rng.Int64N(1000))
		p.MergeStep(0)
		if c := cap(p.vals); c != vc {
			vm, vc = vm+1, c
		}
		if c := cap(p.deleted); c != dc {
			dm, dc = dm+1, c
		}
	}
	if vm > bound || dm > bound {
		t.Fatalf("%d single-row merges moved the base %d times and its tombstones %d times, want at most %d", merges, vm, dm, bound)
	}
}

// TestBitmapTombstones holds a part's tombstone bitmap to the one flag per
// row it replaced: on parts of 334, 333 and 128 rows (not all multiples of
// 64), with the dead rows at word edges and at each part's last row, the
// scan, the first-live lookup before and after row ids attach (through the
// bitmap, cracker.Index.AttachRows), the live multiset and a snapshot round
// trip answer exactly as a []bool model of the rows does.
func TestBitmapTombstones(t *testing.T) {
	for _, rows := range []int{1000, 384} {
		const shards, domain = 3, 40
		rng := rand.New(rand.NewPCG(uint64(rows), 52))
		vals := randomVals(rng, rows, domain)
		c, err := NewColumn("R.A", slices.Clone(vals), Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		dead := make([]bool, rows)
		kill := func(g int) {
			if !dead[g] {
				c.DeleteRow(uint32(g))
				dead[g] = true
			}
		}
		for _, local := range []int{0, 63, 64, 127} {
			for id := range shards {
				kill(local*shards + id)
			}
		}
		for id := range shards {
			kill(rows - 1 - id) // each part's last row
		}
		for g := range rows {
			if rng.IntN(5) == 0 {
				kill(g)
			}
		}
		c.MergePending()

		check := func(c *Column, stage string) {
			t.Helper()
			name := fmt.Sprintf("rows=%d/%s", rows, stage)
			for _, p := range c.Parts() {
				var live []int64
				for local := range p.vals {
					g := int(p.globalRow(local))
					if p.deadLocked(local) != dead[g] {
						t.Fatalf("%s: part %d row %d: dead %v, the model says %v", name, p.id, g, p.deadLocked(local), dead[g])
					}
					if !dead[g] {
						live = append(live, vals[g])
					}
				}
				if got := cracker.LiveValues(p.vals, p.deleted); !slices.Equal(got, live) {
					t.Fatalf("%s: part %d: live values differ from the model's", name, p.id)
				}
				for lo := int64(-1); lo <= domain; lo += 3 {
					wc, ws := naiveRange(live, lo, lo+7)
					if gc, gs := p.scanLocked(lo, lo+7); gc != wc || gs != ws {
						t.Fatalf("%s: part %d: scan [%d,%d) = %d/%d, the model %d/%d", name, p.id, lo, lo+7, gc, gs, wc, ws)
					}
				}
			}
			for v := int64(-1); v <= domain; v++ {
				want, found := uint32(0), false
				for g, x := range vals {
					if x == v && !dead[g] {
						want, found = uint32(g), true
						break
					}
				}
				if got, ok := c.FirstLive(v); ok != found || got != want {
					t.Fatalf("%s: FirstLive(%d) = %d/%v, the model %d/%v", name, v, got, ok, want, found)
				}
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		check(c, "scanned")

		snap, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for i, ps := range snap.Parts {
			for local, d := range ps.Deleted {
				if d != dead[local*shards+i] {
					t.Fatalf("rows=%d: snapshot part %d flags row %d dead %v, the model %v", rows, i, local*shards+i, d, !d)
				}
			}
		}
		c.FanOutCountSum(func(p *Part) (int, int64) { return p.CrackedSelect(5, 20) })
		check(c, "cracked") // FirstLive attaches row ids through the bitmap
		r, err := NewColumnFromSnapshot(snap, Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		check(r, "restored")
	}
}

// TestPartBytesPerRow is the heap budget of a part's per-row arrays: two
// columns of 1M rows on two shards each, cracked by a select, with 1 %
// inserted in bursts of 0.1 % (half before row ids attach and the first
// deletes, half after) and 0.1 % deleted, hold at most 1.03 × (8 B base + 8 B copy + 4 B row id
// + 1/8 B tombstone) of in-use heap per row. Growth by append's 25 % reads
// ~25 B, and a byte per tombstone besides ~26 B.
func TestPartBytesPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are not the parts'")
	}
	const cols, rows, shards = 2, 1_000_000, 2
	const budget = 1.03 * (8 + 8 + 4 + 1.0/8)
	rng := rand.New(rand.NewPCG(52, 5))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cs := make([]*Column, cols)
	total := 0
	for i := range cs {
		c, err := NewColumn(fmt.Sprintf("R.%c", 'A'+i), randomVals(rng, rows, 1<<40), Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		cs[i] = c
		c.FanOutCountSum(func(p *Part) (int, int64) { return p.CrackedSelect(1<<38, 1<<39) })
		next := uint32(rows)
		insert := func(k int) { // in bursts of 0.1 %, each merged before the next
			for j := range k {
				c.AppendAt(next, rng.Int64N(1<<40))
				next++
				if (j+1)%(rows/1000) == 0 {
					c.MergePending()
				}
			}
		}
		insert(rows / 200)
		c.FirstLive(0)                   // attaches every part's row ids
		for g := 0; g < rows; g += 999 { // both parities: both parts
			c.DeleteRow(uint32(g))
		}
		c.MergePending()
		insert(rows / 200)
		total += int(next)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRow := float64(int64(after.HeapInuse)-int64(before.HeapInuse)) / float64(total)
	for _, c := range cs {
		for _, p := range c.Parts() {
			if p.crack == nil || !p.crack.HasRows() || p.nDeleted == 0 {
				t.Fatalf("part %s: copy %v, row ids %v, %d dead: not the shape the budget prices", p.name, p.crack != nil, p.crack != nil && p.crack.HasRows(), p.nDeleted)
			}
		}
	}
	runtime.KeepAlive(cs)
	t.Logf("%.2f B of in-use heap per row over %d rows (budget %.2f)", perRow, total, budget)
	if perRow > budget {
		t.Fatalf("%.2f B of in-use heap per row, budget %.2f", perRow, budget)
	}
}
