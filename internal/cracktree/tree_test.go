package cracktree

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

// A node must stay in the allocator's 48-byte size class: a fully converged
// column holds hundreds of thousands of them.
var _ [48 - unsafe.Sizeof(node{})]byte

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
	if _, _, ok := tr.Get(5); ok {
		t.Fatal("Get on empty tree returned ok")
	}
	if start, end, base, exact := tr.Locate(5, 9); start != 0 || end != 9 || base != 0 || exact {
		t.Fatalf("Locate on empty tree = %d,%d,%d,%v; want the whole array 0,9,0,false", start, end, base, exact)
	}
	if _, _, _, ok := tr.FloorPos(5); ok {
		t.Fatal("FloorPos on empty tree returned ok")
	}
}

func TestInsertAndGet(t *testing.T) {
	var tr Tree
	keys := []int64{50, 20, 80, 10, 30, 70, 90, 60}
	for i, k := range keys {
		if !tr.Insert(k, int(k)*2, -k) {
			t.Fatalf("Insert(%d) reported duplicate", k)
		}
		if tr.Len() != i+1 {
			t.Fatalf("Len after %d inserts = %d", i+1, tr.Len())
		}
	}
	for _, k := range keys {
		pos, sum, ok := tr.Get(k)
		if !ok || pos != int(k)*2 || sum != -k {
			t.Fatalf("Get(%d) = %d,%d,%v; want %d,%d,true", k, pos, sum, ok, int(k)*2, -k)
		}
	}
	if _, _, ok := tr.Get(55); ok {
		t.Fatal("Get(55) should miss")
	}
	validate(t, tr.root, 0, 0, false, false)
}

func TestInsertOverwrites(t *testing.T) {
	var tr Tree
	tr.Insert(7, 100, 1000)
	if tr.Insert(7, 200, 2000) {
		t.Fatal("second Insert of same key reported new boundary")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after duplicate insert", tr.Len())
	}
	pos, sum, _ := tr.Get(7)
	if pos != 200 || sum != 2000 {
		t.Fatalf("position and sum not overwritten: %d, %d", pos, sum)
	}
}

// floorHigher is the reference Locate is held to: the largest boundary at or
// below key and the smallest strictly above it, found by walking every node.
func floorHigher(tr *Tree, key int64) (floorPos int, floorSum int64, hasFloor bool, highPos int, hasHigh bool) {
	tr.Walk(func(k int64, pos int, sum int64) bool {
		if k <= key {
			floorPos, floorSum, hasFloor = pos, sum, true
			return true
		}
		highPos, hasHigh = pos, true
		return false
	})
	return
}

// TestLocateMatchesFloorHigherGet: Locate's one descent must return what a
// floor lookup, a higher lookup and an exact Get return together — the start
// and base of the piece from the floor (0, 0 without one), its end from the
// higher boundary (n without one), exact iff Get hits — on seeded random
// trees that hold the extreme keys and runs of boundaries sharing a position
// (zero-width pieces), on the empty tree, and after Rewrite has moved the
// payloads.
func TestLocateMatchesFloorHigherGet(t *testing.T) {
	const minKey, maxKey = -1 << 63, 1<<63 - 1
	check := func(when string, tr *Tree, n int, probes []int64) {
		t.Helper()
		for _, key := range probes {
			fPos, fSum, _, hPos, hasHigh := floorHigher(tr, key)
			if !hasHigh {
				hPos = n
			}
			_, _, hit := tr.Get(key)
			start, end, base, exact := tr.Locate(key, n)
			if start != fPos || base != fSum || end != hPos || exact != hit {
				t.Fatalf("%s: Locate(%d, %d) = %d,%d,%d,%v; floor/higher/Get say %d,%d,%d,%v",
					when, key, n, start, end, base, exact, fPos, hPos, fSum, hit)
			}
		}
	}
	for trial := uint64(0); trial < 300; trial++ {
		rng := rand.New(rand.NewPCG(41, trial))
		var tr Tree
		check("empty", &tr, int(trial), []int64{minKey, -1, 0, 1, maxKey})
		domain := int64(2 + rng.IntN(400))
		keys := map[int64]bool{}
		for i, k := 0, rng.IntN(200); i < k; i++ {
			keys[rng.Int64N(domain)-domain/2] = true
		}
		if trial%3 == 0 {
			keys[minKey] = true
		}
		if trial%3 != 1 {
			keys[maxKey] = true
		}
		sorted := make([]int64, 0, len(keys))
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		// Positions are non-decreasing in key order, as the cracker keeps
		// them; every third step or so repeats the position before it.
		pos := make(map[int64]int, len(sorted))
		n := 0
		for _, k := range sorted {
			n += rng.IntN(3) * rng.IntN(5)
			pos[k] = n
		}
		n += rng.IntN(4)
		for _, i := range rng.Perm(len(sorted)) { // insertion order shapes the tree
			k := sorted[i]
			tr.Insert(k, pos[k], int64(pos[k])*1000003)
		}
		probes := []int64{minKey, minKey + 1, maxKey - 1, maxKey}
		for _, k := range sorted {
			probes = append(probes, k-1, k, k+1) // wraps at the extremes: still a probe
		}
		for i := 0; i < 50; i++ {
			probes = append(probes, rng.Int64N(domain+20)-domain/2-10)
		}
		check("built", &tr, n, probes)
		validate(t, tr.root, 0, 0, false, false)
		dsum := rng.Int64()
		tr.Rewrite(probes[rng.IntN(len(probes))], rng.IntN(2) == 0, func(_ int64, pos int, sum int64) (int, int64) {
			return pos + 1, sum + dsum
		})
		check("after Rewrite", &tr, n+1, probes)
	}
}

func TestWalkInOrder(t *testing.T) {
	var tr Tree
	perm := rand.New(rand.NewPCG(1, 2)).Perm(100)
	for _, k := range perm {
		tr.Insert(int64(k), k+1000, int64(-k))
	}
	var got []int64
	tr.Walk(func(k int64, pos int, sum int64) bool {
		if pos != int(k)+1000 || sum != -k {
			t.Fatalf("pos, sum mismatch for key %d: %d, %d", k, pos, sum)
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
		tr.Insert(k, 0, 0)
	}
	count := 0
	tr.Walk(func(k int64, pos int, _ int64) bool {
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
			tr.Insert(rng.Int64N(domain)-domain/2, i, int64(3*i))
		}
		for probe := 0; probe < 20; probe++ {
			from := rng.Int64N(domain+20) - domain/2 - 10
			limit := 1 + rng.IntN(n+1) // stop after this many visits
			type kp struct {
				key int64
				pos int
				sum int64
			}
			var want, got []kp
			tr.Walk(func(key int64, pos int, sum int64) bool {
				if key >= from {
					want = append(want, kp{key, pos, sum})
				}
				return len(want) < limit
			})
			tr.WalkFrom(from, func(key int64, pos int, sum int64) bool {
				got = append(got, kp{key, pos, sum})
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

// TestRewrite: the walk visits exactly the keys strictly above its bound, in
// the asked direction, and each visit's answer replaces that boundary's
// position and sum.
func TestRewrite(t *testing.T) {
	var tr Tree
	for _, k := range []int64{10, 20, 30, 40} {
		tr.Insert(k, int(k), 100*k)
	}
	check := func(when string, want map[int64][2]int64) {
		t.Helper()
		for k, w := range want {
			pos, sum, ok := tr.Get(k)
			if !ok || int64(pos) != w[0] || sum != w[1] {
				t.Fatalf("%s: Get(%d) = %d,%d,%v; want %d,%d", when, k, pos, sum, ok, w[0], w[1])
			}
		}
	}
	var seen []int64
	shift := func(dpos int, dsum int64) func(int64, int, int64) (int, int64) {
		seen = seen[:0]
		return func(key int64, pos int, sum int64) (int, int64) {
			seen = append(seen, key)
			return pos + dpos, sum + dsum
		}
	}
	// Everything strictly above key 20 moves +3 positions and +7 in sum.
	tr.Rewrite(20, false, shift(3, 7))
	check("after shift", map[int64][2]int64{10: {10, 1000}, 20: {20, 2000}, 30: {33, 3007}, 40: {43, 4007}})
	if fmt.Sprint(seen) != "[30 40]" {
		t.Fatalf("ascending walk above 20 visited %v", seen)
	}
	// Negative deltas, downwards, from a bound that is not a key.
	tr.Rewrite(15, true, shift(-1, -7))
	check("after negative shift", map[int64][2]int64{10: {10, 1000}, 20: {19, 1993}, 30: {32, 3000}, 40: {42, 4000}})
	if fmt.Sprint(seen) != "[40 30 20]" {
		t.Fatalf("descending walk above 15 visited %v", seen)
	}
	if tr.Rewrite(40, true, shift(1, 1)); len(seen) != 0 {
		t.Fatalf("walk above the largest key visited %v", seen)
	}
}

func TestHeightLogarithmic(t *testing.T) {
	var tr Tree
	// Sorted insertion is the classic worst case for unbalanced BSTs.
	const n = 1 << 12
	for k := int64(0); k < n; k++ {
		tr.Insert(k, int(k), 0)
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
		type entry struct {
			pos int
			sum int64
		}
		ref := map[int64]entry{}
		for i, raw := range opsRaw {
			key := int64(raw % 512)
			switch rng.IntN(4) {
			case 0, 1: // insert
				e := entry{i, rng.Int64()}
				tr.Insert(key, e.pos, e.sum)
				ref[key] = e
			case 2: // lookup consistency checked below
				pos, sum, ok := tr.Get(key)
				w, wok := ref[key]
				if ok != wok || (ok && (entry{pos, sum}) != w) {
					return false
				}
			case 3: // shift everything above key
				dpos, dsum := rng.IntN(7)-3, rng.Int64()
				tr.Rewrite(key, rng.IntN(2) == 0, func(_ int64, pos int, sum int64) (int, int64) {
					return pos + dpos, sum + dsum
				})
				for k, e := range ref {
					if k > key {
						ref[k] = entry{e.pos + dpos, e.sum + dsum}
					}
				}
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		// Locate against the sorted reference.
		keys := make([]int64, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for probe := int64(0); probe < 512; probe += 13 {
			i := sort.Search(len(keys), func(i int) bool { return keys[i] > probe })
			var floor entry
			if i > 0 {
				floor = ref[keys[i-1]]
			}
			higher := -7 // n: no boundary above
			if i < len(keys) {
				higher = ref[keys[i]].pos
			}
			_, hit := ref[probe]
			start, end, base, exact := tr.Locate(probe, -7)
			if (entry{start, base}) != floor || end != higher || exact != hit {
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
		tr.Insert(keys[i], i, 0)
	}
}

func BenchmarkGet(b *testing.B) {
	var tr Tree
	rng := rand.New(rand.NewPCG(2, 2))
	const n = 1 << 16
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int64()
		tr.Insert(keys[i], i, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(keys[i&(n-1)])
	}
}

// FloorPos and HigherPos descend by position: among boundaries sharing a
// position (zero-width pieces) FloorPos returns the largest key, HigherPos
// the smallest of the next position, and FloorPos hands back that boundary's
// sum.
func TestFloorPosHigherPos(t *testing.T) {
	var tr Tree
	for _, b := range []struct {
		key int64
		pos int
	}{{10, 0}, {20, 5}, {30, 5}, {40, 5}, {50, 9}, {60, 9}} {
		tr.Insert(b.key, b.pos, int64(100*b.pos))
	}
	for _, c := range []struct {
		pos               int
		floorKey, highKey int64
		floorOK, highOK   bool
	}{
		{-1, 0, 10, false, true},
		{0, 10, 20, true, true},
		{4, 10, 20, true, true},
		{5, 40, 50, true, true},
		{8, 40, 50, true, true},
		{9, 60, 0, true, false},
		{99, 60, 0, true, false},
	} {
		k, p, sum, ok := tr.FloorPos(c.pos)
		if ok != c.floorOK || (ok && (k != c.floorKey || p > c.pos || sum != int64(100*p))) {
			t.Errorf("FloorPos(%d) = %d,%d,%d,%v; want key %d ok %v", c.pos, k, p, sum, ok, c.floorKey, c.floorOK)
		}
		k, p, ok = tr.HigherPos(c.pos)
		if ok != c.highOK || (ok && (k != c.highKey || p <= c.pos)) {
			t.Errorf("HigherPos(%d) = %d,%d,%v; want key %d ok %v", c.pos, k, p, ok, c.highKey, c.highOK)
		}
	}
}
