package cracker

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestRippleInsertIntoEmpty(t *testing.T) {
	ix := newTestIndex(nil)
	ix.RippleInsert(5, 0)
	if ix.Len() != 1 || ix.Values()[0] != 5 {
		t.Fatalf("contents %v", ix.Values())
	}
	lo, hi, _ := ix.Domain()
	if lo != 5 || hi != 5 {
		t.Fatalf("domain %d,%d", lo, hi)
	}
	if from, to := ix.CrackRange(5, 6); to-from != 1 {
		t.Fatal("inserted value not queryable")
	}
}

func TestRippleInsertPreservesPieces(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 62))
	base := randomVals(rng, 500, 1000)
	ix := newTestIndex(base)
	// Crack into several pieces first.
	for _, q := range [][2]int64{{100, 300}, {600, 900}, {450, 500}} {
		ix.CrackRange(q[0], q[1])
	}
	inserted := []int64{0, 50, 150, 299, 300, 475, 700, 950, 1500, -10}
	for i, v := range inserted {
		ix.RippleInsert(v, uint32(1000+i))
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

func TestRippleInsertRowIDs(t *testing.T) {
	ix := newTestIndex([]int64{10, 20, 30})
	ix.CrackRange(15, 25)
	ix.RippleInsert(22, 77)
	from, to := ix.CrackRange(22, 23)
	if to-from != 1 || ix.Rows()[from] != 77 {
		t.Fatalf("row id lost: rows[%d:%d]=%v", from, to, ix.Rows()[from:to])
	}
}

func TestRippleDeleteBasic(t *testing.T) {
	ix := newTestIndex([]int64{10, 20, 30, 20})
	ix.CrackRange(15, 25)
	r, ok := ix.RippleDelete(20)
	if !ok {
		t.Fatal("delete failed")
	}
	if r != 1 && r != 3 {
		t.Fatalf("deleted row id %d, want 1 or 3", r)
	}
	if ix.Len() != 3 {
		t.Fatalf("len %d", ix.Len())
	}
	from, to := ix.CrackRange(20, 21)
	if to-from != 1 {
		t.Fatalf("one duplicate should remain, found %d", to-from)
	}
	if _, ok := ix.RippleDelete(99); ok {
		t.Fatal("deleted a value that does not exist")
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRippleDeleteToEmpty(t *testing.T) {
	ix := newTestIndex([]int64{7, 7})
	ix.CrackRange(7, 8)
	ix.RippleDelete(7)
	ix.RippleDelete(7)
	if ix.Len() != 0 {
		t.Fatalf("len %d", ix.Len())
	}
	if _, ok := ix.RippleDelete(7); ok {
		t.Fatal("delete from empty succeeded")
	}
	// The boundaries at 7 and 8 outlive the values. An insert below them must
	// still push them up: it used to take a shortcut for the empty copy that
	// left boundary 7 at position 0 claiming every value is >= 7.
	ix.RippleInsert(3, 9)
	if err := ix.Validate(); err != nil {
		t.Fatalf("insert into an emptied, still cracked index: %v", err)
	}
	if c, s := ix.CrackCountSum(0, 7); c != 1 || s != 3 {
		t.Fatalf("[0, 7) after the insert: %d/%d, want 1/3", c, s)
	}
}

// TestPropertyRippleMatchesReference interleaves inserts, deletes, queries
// and random cracks, cross-checking against a reference multiset.
func TestPropertyRippleMatchesReference(t *testing.T) {
	f := func(seed uint64, opsRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, seed*31+7))
		domain := int64(200)
		base := randomVals(rng, 100, domain)
		ix := newTestIndex(base)
		ref := append([]int64{}, base...)
		nextRow := uint32(len(base))

		ops := int(opsRaw%120) + 30
		for i := 0; i < ops; i++ {
			switch rng.IntN(5) {
			case 0: // insert
				v := rng.Int64N(domain+40) - 20
				ix.RippleInsert(v, nextRow)
				nextRow++
				ref = append(ref, v)
			case 1: // delete (value may or may not exist)
				v := rng.Int64N(domain+40) - 20
				_, ok := ix.RippleDelete(v)
				exists := false
				for j, rv := range ref {
					if rv == v {
						ref[j] = ref[len(ref)-1]
						ref = ref[:len(ref)-1]
						exists = true
						break
					}
				}
				if ok != exists {
					return false
				}
			case 2: // query
				lo := rng.Int64N(domain+40) - 20
				hi := lo + rng.Int64N(domain/2+1)
				from, to := ix.CrackRange(lo, hi)
				n, s := ix.CountSum(from, to)
				wn, ws := naiveRange(ref, lo, hi)
				if n != wn || s != ws {
					return false
				}
			case 3: // random crack
				ix.RandomCrackDomain(rng)
			case 4: // validate + permutation check
				if ix.Validate() != nil {
					return false
				}
			}
		}
		if ix.Len() != len(ref) {
			return false
		}
		got := append([]int64{}, ix.Values()...)
		want := append([]int64{}, ref...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return ix.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRippleInsert(b *testing.B) {
	rng := rand.New(rand.NewPCG(4, 4))
	ix := newTestIndex(randomVals(rng, 1<<18, 1<<30))
	// Pre-crack into ~1000 pieces, a realistic converged state.
	for i := 0; i < 1000; i++ {
		ix.RandomCrackDomain(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.RippleInsert(rng.Int64N(1<<30), uint32(i))
	}
}
