package cracktree

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

// validate checks the AVL balance and BST ordering invariants, returning the
// number of nodes seen.
func validate(t *testing.T, n *node, lo, hi int64, haveLo, haveHi bool) int {
	t.Helper()
	if n == nil {
		return 0
	}
	if haveLo && n.key <= lo {
		t.Fatalf("BST order violated: key %d <= lower bound %d", n.key, lo)
	}
	if haveHi && n.key >= hi {
		t.Fatalf("BST order violated: key %d >= upper bound %d", n.key, hi)
	}
	hl, hr := height(n.left), height(n.right)
	if n.height != max8(hl, hr)+1 {
		t.Fatalf("height bookkeeping wrong at key %d: have %d, want %d", n.key, n.height, max8(hl, hr)+1)
	}
	if bf := balanceFactor(n); bf < -1 || bf > 1 {
		t.Fatalf("AVL balance violated at key %d: factor %d", n.key, bf)
	}
	return 1 + validate(t, n.left, lo, n.key, haveLo, true) + validate(t, n.right, n.key, hi, true, haveHi)
}

func max8(a, b int8) int8 {
	if a > b {
		return a
	}
	return b
}

func TestEmptyTree(t *testing.T) {
	var tr Tree
	if tr.Len() != 0 {
		t.Fatalf("empty tree Len = %d", tr.Len())
	}
	if tr.Height() != 0 {
		t.Fatalf("empty tree Height = %d", tr.Height())
	}
	if _, ok := tr.Get(5); ok {
		t.Fatal("Get on empty tree returned ok")
	}
	if _, _, ok := tr.Floor(5); ok {
		t.Fatal("Floor on empty tree returned ok")
	}
	if _, _, ok := tr.Ceiling(5); ok {
		t.Fatal("Ceiling on empty tree returned ok")
	}
	if _, _, ok := tr.Min(); ok {
		t.Fatal("Min on empty tree returned ok")
	}
	if _, _, ok := tr.Max(); ok {
		t.Fatal("Max on empty tree returned ok")
	}
	if tr.Remove(1) {
		t.Fatal("Remove on empty tree reported success")
	}
}

func TestInsertAndGet(t *testing.T) {
	var tr Tree
	keys := []int64{50, 20, 80, 10, 30, 70, 90, 60}
	for i, k := range keys {
		if !tr.Insert(k, int(k)*2) {
			t.Fatalf("Insert(%d) reported duplicate", k)
		}
		if tr.Len() != i+1 {
			t.Fatalf("Len after %d inserts = %d", i+1, tr.Len())
		}
	}
	for _, k := range keys {
		pos, ok := tr.Get(k)
		if !ok || pos != int(k)*2 {
			t.Fatalf("Get(%d) = %d,%v; want %d,true", k, pos, ok, int(k)*2)
		}
	}
	if _, ok := tr.Get(55); ok {
		t.Fatal("Get(55) should miss")
	}
	validate(t, tr.root, 0, 0, false, false)
}

func TestInsertOverwrites(t *testing.T) {
	var tr Tree
	tr.Insert(7, 100)
	if tr.Insert(7, 200) {
		t.Fatal("second Insert of same key reported new boundary")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after duplicate insert", tr.Len())
	}
	pos, _ := tr.Get(7)
	if pos != 200 {
		t.Fatalf("position not overwritten: %d", pos)
	}
}

func TestFloorCeilingHigherLower(t *testing.T) {
	var tr Tree
	for _, k := range []int64{10, 20, 30, 40} {
		tr.Insert(k, int(k))
	}
	cases := []struct {
		name      string
		fn        func(int64) (int64, int, bool)
		query     int64
		wantKey   int64
		wantFound bool
	}{
		{"Floor exact", tr.Floor, 20, 20, true},
		{"Floor between", tr.Floor, 25, 20, true},
		{"Floor below all", tr.Floor, 5, 0, false},
		{"Floor above all", tr.Floor, 99, 40, true},
		{"Ceiling exact", tr.Ceiling, 30, 30, true},
		{"Ceiling between", tr.Ceiling, 25, 30, true},
		{"Ceiling above all", tr.Ceiling, 99, 0, false},
		{"Ceiling below all", tr.Ceiling, 5, 10, true},
		{"Higher exact", tr.Higher, 20, 30, true},
		{"Higher between", tr.Higher, 25, 30, true},
		{"Higher at max", tr.Higher, 40, 0, false},
		{"Lower exact", tr.Lower, 20, 10, true},
		{"Lower at min", tr.Lower, 10, 0, false},
		{"Lower above all", tr.Lower, 99, 40, true},
	}
	for _, c := range cases {
		k, pos, ok := c.fn(c.query)
		if ok != c.wantFound {
			t.Errorf("%s: found=%v want %v", c.name, ok, c.wantFound)
			continue
		}
		if ok && k != c.wantKey {
			t.Errorf("%s: key=%d want %d", c.name, k, c.wantKey)
		}
		if ok && pos != int(k) {
			t.Errorf("%s: pos=%d want %d", c.name, pos, k)
		}
	}
}

func TestMinMax(t *testing.T) {
	var tr Tree
	for _, k := range []int64{42, 7, 99, 13} {
		tr.Insert(k, 0)
	}
	if k, _, _ := tr.Min(); k != 7 {
		t.Fatalf("Min = %d", k)
	}
	if k, _, _ := tr.Max(); k != 99 {
		t.Fatalf("Max = %d", k)
	}
}

func TestWalkInOrder(t *testing.T) {
	var tr Tree
	perm := rand.New(rand.NewPCG(1, 2)).Perm(100)
	for _, k := range perm {
		tr.Insert(int64(k), k+1000)
	}
	var got []int64
	tr.Walk(func(k int64, pos int) bool {
		if pos != int(k)+1000 {
			t.Fatalf("pos mismatch for key %d: %d", k, pos)
		}
		got = append(got, k)
		return true
	})
	if len(got) != 100 {
		t.Fatalf("walked %d nodes", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("walk not in ascending key order")
	}
}

func TestWalkEarlyStop(t *testing.T) {
	var tr Tree
	for k := int64(0); k < 50; k++ {
		tr.Insert(k, 0)
	}
	count := 0
	tr.Walk(func(k int64, pos int) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop visited %d nodes, want 10", count)
	}
}

// WalkFrom must visit exactly what Walk visits after filtering key >= from,
// in the same order, on random trees — including from below the minimum,
// above the maximum and exactly on a key — and must honour early stops.
func TestWalkFromMatchesWalkFilter(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	for trial := 0; trial < 200; trial++ {
		var tr Tree
		n := rng.IntN(300)
		domain := int64(1 + rng.IntN(1000))
		for i := 0; i < n; i++ {
			tr.Insert(rng.Int64N(domain)-domain/2, i)
		}
		for probe := 0; probe < 20; probe++ {
			from := rng.Int64N(domain+20) - domain/2 - 10
			limit := 1 + rng.IntN(n+1) // stop after this many visits
			type kp struct {
				key int64
				pos int
			}
			var want, got []kp
			tr.Walk(func(key int64, pos int) bool {
				if key >= from {
					want = append(want, kp{key, pos})
				}
				return len(want) < limit
			})
			tr.WalkFrom(from, func(key int64, pos int) bool {
				got = append(got, kp{key, pos})
				return len(got) < limit
			})
			if len(got) != len(want) {
				t.Fatalf("trial %d from %d limit %d: WalkFrom visited %d, Walk+filter %d", trial, from, limit, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d from %d: visit %d = %+v, want %+v", trial, from, i, got[i], want[i])
				}
			}
		}
	}
}

func TestRemove(t *testing.T) {
	var tr Tree
	keys := rand.New(rand.NewPCG(3, 4)).Perm(200)
	for _, k := range keys {
		tr.Insert(int64(k), k)
	}
	removeOrder := rand.New(rand.NewPCG(5, 6)).Perm(200)
	for i, k := range removeOrder {
		if !tr.Remove(int64(k)) {
			t.Fatalf("Remove(%d) failed", k)
		}
		if tr.Remove(int64(k)) {
			t.Fatalf("second Remove(%d) succeeded", k)
		}
		if tr.Len() != 200-i-1 {
			t.Fatalf("Len = %d after %d removals", tr.Len(), i+1)
		}
		validate(t, tr.root, 0, 0, false, false)
	}
	if tr.root != nil {
		t.Fatal("tree not empty after removing everything")
	}
}

func TestShiftAfter(t *testing.T) {
	var tr Tree
	for _, k := range []int64{10, 20, 30, 40} {
		tr.Insert(k, int(k))
	}
	// Shift everything strictly above key 20 by +3.
	tr.ShiftAfter(20, 3)
	want := map[int64]int{10: 10, 20: 20, 30: 33, 40: 43}
	for k, w := range want {
		pos, ok := tr.Get(k)
		if !ok || pos != w {
			t.Fatalf("after shift Get(%d) = %d,%v; want %d", k, pos, ok, w)
		}
	}
	// Negative delta, boundary key not present in the tree.
	tr.ShiftAfter(35, -1)
	if pos, _ := tr.Get(40); pos != 42 {
		t.Fatalf("Get(40) = %d after negative shift, want 42", pos)
	}
	if pos, _ := tr.Get(30); pos != 33 {
		t.Fatalf("Get(30) = %d after negative shift, want 33", pos)
	}
}

func TestClear(t *testing.T) {
	var tr Tree
	for k := int64(0); k < 10; k++ {
		tr.Insert(k, 0)
	}
	tr.Clear()
	if tr.Len() != 0 || tr.root != nil {
		t.Fatal("Clear left state behind")
	}
}

func TestHeightLogarithmic(t *testing.T) {
	var tr Tree
	// Sorted insertion is the classic worst case for unbalanced BSTs.
	const n = 1 << 12
	for k := int64(0); k < n; k++ {
		tr.Insert(k, int(k))
	}
	// AVL height bound: 1.44*log2(n+2). For n=4096 that is ~18.
	if h := tr.Height(); h > 18 {
		t.Fatalf("height %d exceeds AVL bound for %d sorted inserts", h, n)
	}
	validate(t, tr.root, 0, 0, false, false)
}

// TestPropertyTreeMatchesSortedMap cross-checks the tree against a reference
// map + sorted slice over random operation sequences.
func TestPropertyTreeMatchesSortedMap(t *testing.T) {
	f := func(seed uint64, opsRaw []uint16) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		var tr Tree
		ref := map[int64]int{}
		for i, raw := range opsRaw {
			key := int64(raw % 512)
			switch rng.IntN(4) {
			case 0, 1: // insert
				tr.Insert(key, i)
				ref[key] = i
			case 2: // remove
				delete(ref, key)
				tr.Remove(key)
			case 3: // lookup consistency checked below
				pos, ok := tr.Get(key)
				wpos, wok := ref[key]
				if ok != wok || (ok && pos != wpos) {
					return false
				}
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		// Floor/Ceiling against the sorted reference.
		keys := make([]int64, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for probe := int64(0); probe < 512; probe += 13 {
			i := sort.Search(len(keys), func(i int) bool { return keys[i] > probe })
			k, _, ok := tr.Floor(probe)
			if i == 0 {
				if ok {
					return false
				}
			} else if !ok || k != keys[i-1] {
				return false
			}
			j := sort.Search(len(keys), func(i int) bool { return keys[i] >= probe })
			k, _, ok = tr.Ceiling(probe)
			if j == len(keys) {
				if ok {
					return false
				}
			} else if !ok || k != keys[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	keys := make([]int64, b.N)
	for i := range keys {
		keys[i] = rng.Int64()
	}
	b.ResetTimer()
	var tr Tree
	for i := 0; i < b.N; i++ {
		tr.Insert(keys[i], i)
	}
}

func BenchmarkGet(b *testing.B) {
	var tr Tree
	rng := rand.New(rand.NewPCG(2, 2))
	const n = 1 << 16
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int64()
		tr.Insert(keys[i], i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(keys[i&(n-1)])
	}
}
