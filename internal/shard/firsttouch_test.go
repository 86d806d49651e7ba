package shard

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"holistic/internal/core"
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
				if int(r)%c.Shards() != p.id || vals[r] != ix.Values()[i] {
					p.mu.Unlock()
					t.Fatalf("%s: part %d holds row %d with value %d, the column has %d", name, p.id, r, ix.Values()[i], vals[r])
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

// BenchmarkFirstTouch times one part's first select on an 8M-row, 2-part
// column: its cracked copy, radix pass and column bounds included. Each
// iteration builds a fresh column off the clock.
func BenchmarkFirstTouch(b *testing.B) {
	const n, domain = 8 << 20, 1 << 40
	vals := randomVals(rand.New(rand.NewPCG(1, 2)), n, domain)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := NewColumn("R.A", slices.Clone(vals), Config{Shards: 2})
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		b.StartTimer()
		c.Parts()[0].CrackedSelect(domain/2, domain/2+domain/100)
	}
}
