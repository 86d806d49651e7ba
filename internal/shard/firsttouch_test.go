package shard

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"holistic/internal/core"
	"holistic/internal/cracker"
)

// TestFirstTouchFromBase materialises every part's cracked copy — built
// straight from the base column, radix pass included — through each path
// that can first touch a part: a select and a tuner idle step. Every cracked
// copy must pair each value with its global row id and pass Validate, and
// every answer must match a scan.
func TestFirstTouchFromBase(t *testing.T) {
	const n, domain = 6000, 1 << 30
	vals := randomVals(rand.New(rand.NewPCG(27, 2)), n, domain)
	paths := map[string]struct {
		cfg   Config
		touch func(c *Column)
	}{
		"select": {Config{Shards: 3, radixMin: 256}, func(c *Column) {
			c.FanOutCountSum(func(p *Part) (int, int64) { return p.CrackedSelect(domain/3, domain/2) })
		}},
		"idle step": {Config{Shards: 3, radixMin: 256}, func(c *Column) {
			// The bid materialises a part, radix pass included, so the target
			// sits below the buckets' size for the action to crack one.
			tu := core.NewTuner(core.Config{TargetPieceSize: 2, Seed: 1}, nil)
			for _, p := range c.Parts() {
				tu.Register(p, 0, domain)
			}
			if acts, _ := tu.RunActions(3 * c.Shards()); acts == 0 {
				t.Fatal("the tuner ran no idle action")
			}
		}},
	}
	for name, path := range paths {
		c, err := NewColumn("R.A", append([]int64{}, vals...), path.cfg)
		if err != nil {
			t.Fatal(err)
		}
		path.touch(c)
		for _, p := range c.Parts() {
			p.RLock()
			ix := p.Cracked()
			p.RUnlock()
			if ix == nil {
				t.Fatalf("%s: part %d has no cracked copy", name, p.id)
			}
			if ix.Pieces() < 2 {
				t.Fatalf("%s: part %d is one piece; the radix pass did not run", name, p.id)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("%s: part %d: %v", name, p.id, err)
			}
			p.mu.Lock()
			for i, r := range ix.Rows() {
				if int(r)%c.Shards() != p.id || vals[r] != ix.AppendValues(nil)[i] {
					p.mu.Unlock()
					t.Fatalf("%s: part %d holds row %d with value %d, the column has %d", name, p.id, r, ix.AppendValues(nil)[i], vals[r])
				}
			}
			p.mu.Unlock()
		}
		rng := rand.New(rand.NewPCG(3, 3))
		for q := 0; q < 50; q++ {
			lo := rng.Int64N(domain)
			hi := lo + rng.Int64N(domain/8) + 1
			count, sum := c.FanOutCountSum(func(p *Part) (int, int64) { return p.CrackedSelect(lo, hi) })
			if wc, ws := naiveRange(vals, lo, hi); count != wc || sum != ws {
				t.Fatalf("%s [%d,%d): got %d/%d want %d/%d", name, lo, hi, count, sum, wc, ws)
			}
		}
	}
}

// TestTombstonedFirstTouch tombstones rows of every part before its first
// select, then selects: the part builds its copy from its live rows alone,
// through the same radix build as an untouched part. The copy must hold
// exactly the live values, keep at least the planned buckets as pieces, pass
// Validate, and answer every range as a scan of the live rows does.
func TestTombstonedFirstTouch(t *testing.T) {
	const n, domain, radixMin = 6000, 1 << 30, 256
	vals := randomVals(rand.New(rand.NewPCG(61, 1)), n, domain)
	c, err := NewColumn("R.A", slices.Clone(vals), Config{Shards: 2, radixMin: radixMin})
	if err != nil {
		t.Fatal(err)
	}
	dead := make([]bool, n)
	for g := 0; g < n; g += 5 {
		c.DeleteRow(uint32(g))
		dead[g] = true
	}
	c.MergePending()
	for _, p := range c.Parts() {
		if p.Cracked() != nil || p.nDeleted == 0 {
			t.Fatalf("part %d: index %v and %d tombstones before the first select", p.id, p.Cracked() != nil, p.nDeleted)
		}
	}
	var live []int64
	for g, v := range vals {
		if !dead[g] {
			live = append(live, v)
		}
	}
	check := func(lo, hi int64) {
		t.Helper()
		count, sum := c.FanOutCountSum(func(p *Part) (int, int64) { return p.CrackedSelect(lo, hi) })
		if wc, ws := naiveRange(live, lo, hi); count != wc || sum != ws {
			t.Fatalf("[%d,%d): got %d/%d want %d/%d", lo, hi, count, sum, wc, ws)
		}
	}
	check(domain/3, domain/2)
	for _, p := range c.Parts() {
		p.mu.Lock()
		var want []int64
		for g := p.id; g < n; g += c.Shards() {
			if !dead[g] {
				want = append(want, vals[g])
			}
		}
		planned := cracker.NewFromBase(want, p.lo, p.hi, radixMin).Pieces() // the part plans over its bounds
		got := slices.Clone(p.crack.AppendValues(nil))
		pieces := p.crack.Pieces()
		p.mu.Unlock()
		if pieces < planned || planned < 4 {
			t.Fatalf("part %d: %d pieces after the first select, want at least the %d planned buckets", p.id, pieces, planned)
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("part %d: the copy's %d values are not the %d live rows' values", p.id, len(got), len(want))
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("part %d: %v", p.id, err)
		}
	}
	rng := rand.New(rand.NewPCG(61, 2))
	for q := 0; q < 50; q++ {
		lo := rng.Int64N(domain)
		check(lo, lo+rng.Int64N(domain/8)+1)
	}
}

// TestFirstTouchCopiesLiveRowsOnce: a part with tombstones builds its
// cracked copy straight from its base, skipping the tombstoned rows, so its
// first touch allocates one copy of the live values, not a snapshot of them
// and then the copy, whether the build radixes (threshold below the live
// count) or copies (threshold above it). A copy is 4 bytes a value when
// the part's values span less than 2^32 (narrow; see package cracker) and 8
// otherwise.
func TestFirstTouchCopiesLiveRowsOnce(t *testing.T) {
	const n = 1 << 17
	for _, c := range []struct {
		domain int64
		bytes  uint64
	}{{1 << 30, 4}, {1 << 40, 8}} {
		firstTouchCopiesLiveRowsOnce(t, randomVals(rand.New(rand.NewPCG(63, 2)), n, c.domain), c.bytes)
	}
}

func firstTouchCopiesLiveRowsOnce(t *testing.T, vals []int64, bytesPerValue uint64) {
	n := len(vals)
	for _, radixMin := range []int{1 << 10, 2 * n} {
		c, err := NewColumn("R.A", slices.Clone(vals), Config{radixMin: radixMin})
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < n; g += 5 {
			c.DeleteRow(uint32(g))
		}
		c.MergePending()
		p := c.Parts()[0]
		live := n - p.nDeleted
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p.materialise()
		runtime.ReadMemStats(&after)
		copyBytes := bytesPerValue * uint64(live)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("radixMin=%d: the first touch of %d live rows allocated %d B, one copy is %d B", radixMin, live, got, copyBytes)
		if got > copyBytes+copyBytes/8 {
			t.Fatalf("radixMin=%d: the first touch allocated %d B, want one %d-B copy", radixMin, got, copyBytes)
		}
		if p.crack.Len() != live || (radixMin < live) != (p.crack.Pieces() > 1) {
			t.Fatalf("radixMin=%d: a copy of %d values in %d pieces, want %d values", radixMin, p.crack.Len(), p.crack.Pieces(), live)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkFirstTouch times the first select on an 8M-row, 2-part column:
// the cracked copy and radix pass included. one-part first-touches one part
// on the caller's goroutine; both-parts first-touches both at once through
// the fan-out, the shape of a cold column's first query. The parts' bounds
// are not timed: NewColumn paid for them at load (BenchmarkNewColumn). Each
// iteration builds a fresh column off the clock.
func BenchmarkFirstTouch(b *testing.B) {
	const n, domain = 8 << 20, 1 << 40
	vals := randomVals(rand.New(rand.NewPCG(1, 2)), n, domain)
	sel := func(p *Part) (int, int64) { return p.CrackedSelect(domain/2, domain/2+domain/100) }
	for _, c := range []struct {
		name  string
		touch func(c *Column)
	}{
		{"one-part", func(c *Column) { sel(c.Parts()[0]) }},
		{"both-parts", func(c *Column) { c.FanOutCountSum(sel) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				col, err := NewColumn("R.A", slices.Clone(vals), Config{Shards: 2})
				if err != nil {
					b.Fatal(err)
				}
				runtime.GC()
				b.StartTimer()
				c.touch(col)
			}
		})
	}
}
