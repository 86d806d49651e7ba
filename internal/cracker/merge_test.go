package cracker

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"holistic/internal/updates"
)

// one is a batch of a single entry.
func one(v int64, r uint32) []updates.Entry { return []updates.Entry{{Val: v, Row: r}} }

func TestMergeInsertIntoEmpty(t *testing.T) {
	ix := newTestIndex(nil)
	ix.Merge(one(5, 0), nil)
	if ix.Len() != 1 || ix.AppendValues(nil)[0] != 5 {
		t.Fatalf("contents %v", ix.AppendValues(nil))
	}
	if from, to := ix.CrackRange(5, 6); to-from != 1 {
		t.Fatal("inserted value not queryable")
	}
}

func TestMergeInsertPreservesPieces(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 62))
	base := randomVals(rng, 500, 1000)
	ix := newTestIndex(base)
	// Crack into several pieces first.
	for _, q := range [][2]int64{{100, 300}, {600, 900}, {450, 500}} {
		ix.CrackRange(q[0], q[1])
	}
	inserted := []int64{0, 50, 150, 299, 300, 475, 700, 950, 1500, -10}
	for i, v := range inserted {
		ix.Merge(one(v, uint32(1000+i)), nil)
		if err := ix.Validate(); err != nil {
			t.Fatalf("after inserting %d: %v", v, err)
		}
	}
	if ix.Len() != 500+len(inserted) {
		t.Fatalf("len %d", ix.Len())
	}
	// All inserted values answer queries.
	all := append(append([]int64{}, base...), inserted...)
	for _, q := range [][2]int64{{-100, 2000}, {100, 300}, {299, 301}, {900, 1600}} {
		from, to := ix.CrackRange(q[0], q[1])
		n, s := ix.CountSum(from, to)
		wn, ws := naiveRange(all, q[0], q[1])
		if n != wn || s != ws {
			t.Fatalf("query [%d,%d): %d/%d want %d/%d", q[0], q[1], n, s, wn, ws)
		}
	}
}

func TestMergeInsertRowIDs(t *testing.T) {
	ix := newTestIndex([]int64{10, 20, 30})
	ix.CrackRange(15, 25)
	ix.Merge(one(22, 77), nil)
	from, to := ix.CrackRange(22, 23)
	if to-from != 1 || ix.Rows()[from] != 77 {
		t.Fatalf("row id lost: rows[%d:%d]=%v", from, to, ix.Rows()[from:to])
	}
}

func TestMergeDeleteBasic(t *testing.T) {
	ix := newTestIndex([]int64{10, 20, 30, 20})
	ix.CrackRange(15, 25)
	if missing := ix.Merge(nil, one(20, 3)); missing != 0 {
		t.Fatal("delete failed")
	}
	if ix.Len() != 3 {
		t.Fatalf("len %d", ix.Len())
	}
	from, to := ix.CrackRange(20, 21)
	if to-from != 1 || ix.Rows()[from] != 1 {
		t.Fatalf("row 1's duplicate should remain, found rows %v", ix.Rows()[from:to])
	}
	if ix.Merge(nil, one(99, 0)) != 1 || ix.Merge(nil, one(20, 3)) != 1 {
		t.Fatal("deleted a (value, row) that does not exist")
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeDeleteToEmpty(t *testing.T) {
	ix := newTestIndex([]int64{7, 7})
	ix.CrackRange(7, 8)
	ix.Merge(nil, one(7, 0))
	ix.Merge(nil, one(7, 1))
	if ix.Len() != 0 {
		t.Fatalf("len %d", ix.Len())
	}
	if ix.Merge(nil, one(7, 0)) != 1 {
		t.Fatal("delete from empty succeeded")
	}
	// The boundaries at 7 and 8 outlive the values. An insert below them must
	// still push them up: a shortcut for the empty copy once left boundary 7
	// at position 0 claiming every value is >= 7.
	ix.Merge(one(3, 9), nil)
	if err := ix.Validate(); err != nil {
		t.Fatalf("insert into an emptied, still cracked index: %v", err)
	}
	if c, s := ix.CrackCountSum(0, 7); c != 1 || s != 3 {
		t.Fatalf("[0, 7) after the insert: %d/%d, want 1/3", c, s)
	}
}

// TestPropertyRippleMatchesReference interleaves one-row inserts and deletes,
// queries and random cracks, cross-checking against a reference multiset.
func TestPropertyRippleMatchesReference(t *testing.T) {
	f := func(seed uint64, opsRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, seed*31+7))
		domain := int64(200)
		base := randomVals(rng, 100, domain)
		ix := newTestIndex(base)
		var ref []modelRow
		for i, v := range base {
			ref = append(ref, modelRow{v, uint32(i)})
		}
		nextRow := uint32(len(base))

		ops := int(opsRaw%120) + 30
		for i := 0; i < ops; i++ {
			switch rng.IntN(5) {
			case 0: // insert
				v := rng.Int64N(domain+40) - 20
				ix.Merge(one(v, nextRow), nil)
				ref = append(ref, modelRow{v, nextRow})
				nextRow++
			case 1: // delete the first row holding v, if there is one
				v := rng.Int64N(domain+40) - 20
				j := slices.IndexFunc(ref, func(e modelRow) bool { return e.v == v })
				r := nextRow
				if j >= 0 {
					r = ref[j].r
					ref = slices.Delete(ref, j, j+1)
				}
				if missing := ix.Merge(nil, one(v, r)); (missing == 0) != (j >= 0) {
					return false
				}
			case 2: // query
				lo := rng.Int64N(domain+40) - 20
				hi := lo + rng.Int64N(domain/2+1)
				from, to := ix.CrackRange(lo, hi)
				n, s := ix.CountSum(from, to)
				wc, ws := 0, int64(0)
				for _, e := range ref {
					if e.v >= lo && e.v < hi {
						wc, ws = wc+1, ws+e.v
					}
				}
				if n != wc || s != ws {
					return false
				}
			case 3: // random crack
				ix.RandomCrack(rng)
			case 4: // validate
				if ix.Validate() != nil {
					return false
				}
			}
		}
		if ix.Len() != len(ref) {
			return false
		}
		got := append([]int64{}, ix.AppendValues(nil)...)
		want := make([]int64, len(ref))
		for i, e := range ref {
			want[i] = e.v
		}
		slices.Sort(got)
		slices.Sort(want)
		return slices.Equal(got, want) && ix.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkMergeStep times one merge step on 1M values cracked into a given
// number of pieces: a sorted batch of b inserts and b deletes in one Merge.
// Two batches take turns — the step inserts one and deletes the other — so
// every step finds the same pieces and the same number of values.
func BenchmarkMergeStep(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewPCG(26, 26))
	vals := randomVals(rng, n, 1<<40)
	slices.Sort(vals)
	for _, pieces := range []int{1_000, 22_000, 278_000} {
		// Boundaries at evenly spaced values of the sorted copy.
		var bs []Boundary
		for i := 1; i < pieces; i++ {
			pos := i * n / pieces
			for pos > 0 && vals[pos-1] == vals[pos] {
				pos--
			}
			if len(bs) == 0 || bs[len(bs)-1].Key < vals[pos] {
				bs = append(bs, Boundary{Key: vals[pos], Pos: pos})
			}
		}
		ix, err := RestoreIndex(slices.Clone(vals), bs, false)
		if err != nil {
			b.Fatal(err)
		}
		if err := ix.AttachRows(vals, 0, 1, nil); err != nil { // row i at position i
			b.Fatal(err)
		}
		for _, size := range []int{1, 64, 512, 4096} {
			batch := func(row0 uint32) []updates.Entry {
				es := make([]updates.Entry, size)
				for i := range es {
					es[i] = updates.Entry{Val: rng.Int64N(1 << 40), Row: row0 + uint32(i)}
				}
				updates.SortByVal(es)
				return es
			}
			in, out := batch(n), batch(2*n)
			ix.Merge(out, nil)
			b.Run(fmt.Sprintf("pieces=%d/batch=%d", ix.Pieces(), size), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if ix.Merge(in, out) != 0 {
						b.Fatal("a delete missed its row")
					}
					in, out = out, in
				}
			})
			ix.Merge(nil, out)
		}
	}
}
