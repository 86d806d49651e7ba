package cracker

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// attachBase is a part-like base: n values over a domain small enough for
// duplicates, one row in seven tombstoned, row ids row0 + i*stride. It
// returns the base, its tombstones and a values-only copy of its live rows.
func attachBase(rng *rand.Rand, n int, domain int64) (base []int64, dead []bool, live []int64) {
	base, dead = make([]int64, n), make([]bool, n)
	for i := range base {
		base[i] = rng.Int64N(domain) - domain/4
		if dead[i] = rng.IntN(7) == 0; !dead[i] {
			live = append(live, base[i])
		}
	}
	return base, dead, live
}

// pack is AttachRows' tombstone bitmap of dead: bit i%64 of word i/64.
func pack(dead []bool) []uint64 {
	b := make([]uint64, (len(dead)+63)/64)
	for i, d := range dead {
		if d {
			b[i/64] |= 1 << (i % 64)
		}
	}
	return b
}

// design is everything of an index a select can observe.
type design struct {
	bounds [][3]int64
	pre    []int64
	pieces int
	work   int64
	cracks int
}

func designOf(ix *Index) design {
	return design{boundaries(ix), slices.Clone(ix.pre), ix.Pieces(), ix.Work(), ix.Cracks()}
}

func (d design) equal(o design) bool {
	return slices.Equal(d.bounds, o.bounds) && slices.Equal(d.pre, o.pre) &&
		d.pieces == o.pieces && d.work == o.work && d.cracks == o.cracks
}

// TestAttachRowsKeepsDesign: attaching row ids to a values-only copy —
// cracked by queries, radix passes and idle cracks, or sorted — leaves every
// boundary (key, position, sum), prefix sum, piece count and tally as it was,
// pairs every live base row with its own value, and MinRowOf then names the
// row a reference scan of the base does, under a liveness filter.
func TestAttachRowsKeepsDesign(t *testing.T) {
	const row0, stride = 2, 3
	for _, state := range []string{"cracked", "sorted"} {
		for _, n := range []int{0, 1, 50, 5000} {
			name := fmt.Sprintf("%s/n=%d", state, n)
			rng := rand.New(rand.NewPCG(uint64(n), 46))
			base, dead, live := attachBase(rng, n, int64(n/3+2))
			ix := New(live, nil)
			ix.SetRadixMinPiece(256)
			for q := 0; q < 40; q++ {
				lo := rng.Int64N(int64(n/3+2)) - int64(n/12)
				ix.CrackRange(lo, lo+rng.Int64N(int64(n/10+2)))
				ix.RandomCrack(rng)
			}
			if state == "sorted" {
				ix.Sort()
			}
			before := designOf(ix)
			if err := ix.AttachRows(base, row0, stride, pack(dead)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if after := designOf(ix); !after.equal(before) {
				t.Fatalf("%s: attach changed the design:\n%+v\n%+v", name, before, after)
			}
			if err := ix.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			seen := make(map[uint32]bool)
			for i, r := range ix.Rows() {
				k := int((r - row0) / stride)
				if seen[r] || dead[k] || base[k] != ix.AppendValues(nil)[i] {
					t.Fatalf("%s: entry %d holds %d with row %d (base %d, dead %v, seen %v)", name, i, ix.AppendValues(nil)[i], r, base[k], dead[k], seen[r])
				}
				seen[r] = true
			}
			if len(seen) != len(live) {
				t.Fatalf("%s: %d rows attached, %d live", name, len(seen), len(live))
			}
			pending := func(r uint32) bool { return r%5 != 0 } // rows a buffered delete hides
			for v := int64(-n/4 - 1); v <= int64(n/3+2); v++ {
				var want uint32
				found := false
				for i, x := range base {
					if r := row0 + uint32(i)*stride; x == v && !dead[i] && pending(r) {
						want, found = r, true
						break
					}
				}
				if got, ok := ix.MinRowOf(v, pending); ok != found || got != want {
					t.Fatalf("%s: MinRowOf(%d) = %d/%v, a scan finds %d/%v", name, v, got, ok, want, found)
				}
			}
			if err := ix.AttachRows(base, row0, stride, pack(dead)); err != nil || !designOf(ix).equal(before) {
				t.Fatalf("%s: a second attach is not a no-op: %v", name, err)
			}
		}
	}
}

// TestAttachRowsRefusesAnotherMultiset: a base whose live values are not
// the copy's — in number or in sum, piece by piece — leaves the index as it
// was, values-only, and says so.
func TestAttachRowsRefusesAnotherMultiset(t *testing.T) {
	base := []int64{1, 2, 3, 4}
	for name, copyVals := range map[string][]int64{
		"extra base value":     {1, 2, 3},
		"extra copy value":     {1, 2, 3, 4, 4},
		"other value, a piece": {1, 2, 3, 5},
		"other value, sorted":  {1, 2, 2, 4},
	} {
		ix := New(slices.Clone(copyVals), nil)
		ix.CrackRange(2, 4)
		if name == "other value, sorted" {
			ix.Sort()
		}
		before := slices.Clone(ix.AppendValues(nil))
		if err := ix.AttachRows(base, 0, 1, nil); err == nil || ix.Rows() != nil || !slices.Equal(ix.AppendValues(nil), before) {
			t.Fatalf("%s: attach of another multiset: err %v, rows %v, values %v", name, err, ix.Rows(), ix.AppendValues(nil))
		}
	}
}

// BenchmarkAttachRows times the attach a part's first DELETE pays: one
// pass over a 1M-row base into a values-only copy cracked into ~300, ~3 000
// and ~30 000 pieces by idle cracks. Each iteration restores the values-only
// copy off the clock.
func BenchmarkAttachRows(b *testing.B) {
	const n, domain = 1 << 20, 1 << 40
	rng := rand.New(rand.NewPCG(46, 1))
	base := randomVals(rng, n, domain)
	for _, pieces := range []int{300, 3000, 30000} {
		ix := NewFromBase(base, slices.Min(base), slices.Max(base), 0)
		for ix.Pieces() < pieces {
			ix.RandomCrack(rng)
		}
		vals, bs := slices.Clone(ix.AppendValues(nil)), ix.Boundaries()
		b.Run(fmt.Sprintf("pieces=%d", pieces), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ix, err := RestoreIndex(slices.Clone(vals), bs, false)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := ix.AttachRows(base, 0, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
