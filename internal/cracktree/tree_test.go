package cracktree

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// model is the reference the tree is held to: the same boundaries in one
// sorted slice, answering every query by a linear search or a sort.Search.
type model struct {
	keys []int64
	pos  []int
	sums []int64
}

// upper returns the number of boundaries with a key <= key.
func (m *model) upper(key int64) int {
	return sort.Search(len(m.keys), func(i int) bool { return m.keys[i] > key })
}

// upperPos returns the number of boundaries with a position <= pos.
func (m *model) upperPos(pos int) int {
	return sort.Search(len(m.pos), func(i int) bool { return m.pos[i] > pos })
}

func (m *model) insert(key int64, pos int, sum int64) bool {
	i := m.upper(key)
	if i > 0 && m.keys[i-1] == key {
		m.pos[i-1], m.sums[i-1] = pos, sum
		return false
	}
	m.keys = slices.Insert(m.keys, i, key)
	m.pos = slices.Insert(m.pos, i, pos)
	m.sums = slices.Insert(m.sums, i, sum)
	return true
}

// room returns the positions a boundary at key may take and keep positions
// non-decreasing: from its predecessor's to its successor's, 0 and n
// without them.
func (m *model) room(key int64, n int) (lo, hi int) {
	j := m.upper(key)
	i := j
	if i > 0 && m.keys[i-1] == key {
		i--
	}
	if i > 0 {
		lo = m.pos[i-1]
	}
	hi = n
	if j < len(m.keys) {
		hi = m.pos[j]
	}
	return lo, hi
}

func (m *model) locate(key int64, n int) (start, end int, base int64, exact bool) {
	i := m.upper(key)
	end = n
	if i < len(m.keys) {
		end = m.pos[i]
	}
	if i == 0 {
		return 0, end, 0, false
	}
	return m.pos[i-1], end, m.sums[i-1], m.keys[i-1] == key
}

func (m *model) floorPos(pos int) (int64, int, int64, bool) {
	i := m.upperPos(pos)
	if i == 0 {
		return 0, 0, 0, false
	}
	return m.keys[i-1], m.pos[i-1], m.sums[i-1], true
}

// rewrite is Tree.Rewrite on the model; it returns the keys in visit order.
func (m *model) rewrite(above int64, down bool, visit func(int64, int, int64) (int, int64)) []int64 {
	var seen []int64
	at := func(i int) {
		seen = append(seen, m.keys[i])
		m.pos[i], m.sums[i] = visit(m.keys[i], m.pos[i], m.sums[i])
	}
	if down {
		for i := len(m.keys) - 1; i >= m.upper(above); i-- {
			at(i)
		}
	} else {
		for i := m.upper(above); i < len(m.keys); i++ {
			at(i)
		}
	}
	return seen
}

// shiftRange returns the smallest position delta a rewrite above key may add
// and keep positions non-decreasing, and whether any boundary lies above key.
func (m *model) shiftRange(above int64) (minDelta int, any bool) {
	i := m.upper(above)
	if i == len(m.keys) {
		return 0, false
	}
	lo := 0
	if i > 0 {
		lo = m.pos[i-1]
	}
	return lo - m.pos[i], true
}

// compare holds the tree to the model: Check, Len, a full Walk, and Locate
// and FloorPos at every probe. n is the cracked array's length.
func compare(tr *Tree, m *model, n int, keys []int64, positions []int) error {
	if err := tr.Check(); err != nil {
		return err
	}
	if tr.Len() != len(m.keys) {
		return fmt.Errorf("Len = %d, model holds %d", tr.Len(), len(m.keys))
	}
	i := 0
	var err error
	tr.Walk(func(k int64, p int, s int64) bool {
		if i >= len(m.keys) || k != m.keys[i] || p != m.pos[i] || s != m.sums[i] {
			err = fmt.Errorf("Walk entry %d = %d,%d,%d; model disagrees", i, k, p, s)
			return false
		}
		i++
		return true
	})
	if err != nil {
		return err
	}
	for _, key := range keys {
		start, end, base, exact := tr.Locate(key, n)
		ws, we, wb, wx := m.locate(key, n)
		if start != ws || end != we || base != wb || exact != wx {
			return fmt.Errorf("Locate(%d, %d) = %d,%d,%d,%v; model says %d,%d,%d,%v", key, n, start, end, base, exact, ws, we, wb, wx)
		}
	}
	for _, pos := range positions {
		k, p, s, ok := tr.FloorPos(pos)
		wk, wp, ws, wok := m.floorPos(pos)
		if k != wk || p != wp || s != ws || ok != wok {
			return fmt.Errorf("FloorPos(%d) = %d,%d,%d,%v; model says %d,%d,%d,%v", pos, k, p, s, ok, wk, wp, ws, wok)
		}
	}
	return nil
}

// at returns the position and sum of an exact boundary key.
func at(tr *Tree, key int64) (pos int, sum int64, ok bool) {
	pos, _, sum, ok = tr.Locate(key, 0)
	return pos, sum, ok
}

func TestEmptyTree(t *testing.T) {
	var tr Tree
	if tr.Len() != 0 {
		t.Fatalf("empty tree Len = %d", tr.Len())
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if start, end, base, exact := tr.Locate(5, 9); start != 0 || end != 9 || base != 0 || exact {
		t.Fatalf("Locate on empty tree = %d,%d,%d,%v; want the whole array 0,9,0,false", start, end, base, exact)
	}
	if _, _, _, ok := tr.FloorPos(5); ok {
		t.Fatal("FloorPos on empty tree returned ok")
	}
	visit := func(int64, int, int64) bool { t.Fatal("walk over an empty tree visited"); return false }
	tr.Walk(visit)
	tr.WalkFrom(5, visit)
	tr.Rewrite(5, true, func(int64, int, int64) (int, int64) { t.Fatal("Rewrite of an empty tree visited"); return 0, 0 })
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
		pos, sum, ok := at(&tr, k)
		if !ok || pos != int(k)*2 || sum != -k {
			t.Fatalf("boundary %d = %d,%d,%v; want %d,%d,true", k, pos, sum, ok, int(k)*2, -k)
		}
	}
	if _, _, ok := at(&tr, 55); ok {
		t.Fatal("55 is no boundary")
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
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
	pos, sum, _ := at(&tr, 7)
	if pos != 200 || sum != 2000 {
		t.Fatalf("position and sum not overwritten: %d, %d", pos, sum)
	}
}

// TestLocateMatchesFloorHigherGet: Locate and FloorPos must answer what the sorted-slice model answers — on seeded random trees over a
// key domain of up to 40 blocks' worth of keys, inserted in random order so
// blocks split everywhere, holding the extreme keys and runs of boundaries
// sharing a position (zero-width pieces), probed at every key, its
// neighbours and positions across block edges, on the empty tree, and after
// Rewrite has moved the payloads.
func TestLocateMatchesFloorHigherGet(t *testing.T) {
	const minKey, maxKey = -1 << 63, 1<<63 - 1
	for trial := uint64(0); trial < 100; trial++ {
		rng := rand.New(rand.NewPCG(41, trial))
		var tr Tree
		var m model
		if err := compare(&tr, &m, int(trial), []int64{minKey, -1, 0, 1, maxKey}, []int{-1, 0, 1}); err != nil {
			t.Fatalf("empty: %v", err)
		}
		domain := int64(2 + rng.IntN(40*blockCap))
		keys := map[int64]bool{}
		for i, k := 0, rng.IntN(int(domain)); i < k; i++ {
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
		slices.Sort(sorted)
		// Positions are non-decreasing in key order, as the cracker keeps
		// them; every third step or so repeats the position before it.
		pos := make(map[int64]int, len(sorted))
		n := 0
		for _, k := range sorted {
			n += rng.IntN(3) * rng.IntN(5)
			pos[k] = n
		}
		n += rng.IntN(4)
		for _, i := range rng.Perm(len(sorted)) {
			k := sorted[i]
			tr.Insert(k, pos[k], int64(pos[k])*1000003)
			m.insert(k, pos[k], int64(pos[k])*1000003)
		}
		probes := []int64{minKey, minKey + 1, maxKey - 1, maxKey}
		for _, k := range sorted {
			probes = append(probes, k-1, k, k+1) // wraps at the extremes: still a probe
		}
		for i := 0; i < 50; i++ {
			probes = append(probes, rng.Int64N(domain+20)-domain/2-10)
		}
		positions := []int{-1, 0, n, n + 1}
		for _, k := range sorted {
			positions = append(positions, pos[k]-1, pos[k], pos[k]+1)
		}
		if err := compare(&tr, &m, n, probes, positions); err != nil {
			t.Fatalf("trial %d built: %v", trial, err)
		}
		dsum := rng.Int64()
		above, down := probes[rng.IntN(len(probes))], rng.IntN(2) == 0
		shift := func(_ int64, pos int, sum int64) (int, int64) { return pos + 1, sum + dsum }
		tr.Rewrite(above, down, shift)
		m.rewrite(above, down, shift)
		if err := compare(&tr, &m, n+1, probes, positions); err != nil {
			t.Fatalf("trial %d after Rewrite above %d: %v", trial, above, err)
		}
	}
}

func TestWalkInOrder(t *testing.T) {
	var tr Tree
	perm := rand.New(rand.NewPCG(1, 2)).Perm(1000)
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
	if len(got) != 1000 {
		t.Fatalf("walked %d boundaries", len(got))
	}
	if !slices.IsSorted(got) {
		t.Fatal("walk not in ascending key order")
	}
}

func TestWalkEarlyStop(t *testing.T) {
	var tr Tree
	for k := int64(0); k < 3*blockCap; k++ {
		tr.Insert(k, 0, 0)
	}
	for _, stop := range []int{10, blockCap, blockCap + 1} {
		count := 0
		tr.Walk(func(k int64, pos int, _ int64) bool {
			count++
			return count < stop
		})
		if count != stop {
			t.Fatalf("early stop after %d visited %d boundaries", stop, count)
		}
	}
}

// WalkFrom must visit exactly what Walk visits after filtering key >= from,
// in the same order, on random trees of up to a dozen blocks — including
// from below the minimum, above the maximum and exactly on a key — and must
// honour early stops.
func TestWalkFromMatchesWalkFilter(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	for trial := 0; trial < 200; trial++ {
		var tr Tree
		n := rng.IntN(12 * blockCap)
		domain := int64(1 + rng.IntN(20*blockCap))
		var keys []int64
		for i := 0; i < n; i++ {
			k := rng.Int64N(domain) - domain/2
			tr.Insert(k, i, int64(3*i))
			keys = append(keys, k)
		}
		for probe := 0; probe < 20; probe++ {
			from := rng.Int64N(domain+20) - domain/2 - 10
			if probe%2 == 0 && n > 0 {
				from = keys[rng.IntN(n)]
			}
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
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d from %d limit %d: WalkFrom visited %v, Walk+filter %v", trial, from, limit, got, want)
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
			pos, sum, ok := at(&tr, k)
			if !ok || int64(pos) != w[0] || sum != w[1] {
				t.Fatalf("%s: boundary %d = %d,%d,%v; want %d,%d", when, k, pos, sum, ok, w[0], w[1])
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

// TestPropertyTreeMatchesSortedMap cross-checks the tree against the
// sorted-slice model over random operation sequences: inserts of new keys
// and overwrites, at positions that keep the order, and rewrites up and down
// by deltas of either sign, over a key domain of 24 blocks' worth of keys so
// blocks split and neighbours sit across block edges.
func TestPropertyTreeMatchesSortedMap(t *testing.T) {
	const domain = 24 * blockCap
	f := func(seed uint64, ops uint16) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		var tr Tree
		var m model
		n := 1 << 20
		for range int(ops % 4096) {
			key := rng.Int64N(domain)
			switch rng.IntN(4) {
			case 0, 1, 2: // insert or overwrite
				lo, hi := m.room(key, n)
				pos, sum := lo+rng.IntN(hi-lo+1), rng.Int64()
				if tr.Insert(key, pos, sum) != m.insert(key, pos, sum) {
					t.Logf("Insert(%d) disagrees on whether the key is new", key)
					return false
				}
			case 3: // shift everything above key, either direction
				minDelta, ok := m.shiftRange(key)
				if !ok {
					continue
				}
				dpos, dsum := minDelta+rng.IntN(8-minDelta), rng.Int64()
				down := rng.IntN(2) == 0
				var seen []int64
				tr.Rewrite(key, down, func(k int64, pos int, sum int64) (int, int64) {
					seen = append(seen, k)
					return pos + dpos, sum + dsum
				})
				want := m.rewrite(key, down, func(_ int64, pos int, sum int64) (int, int64) {
					return pos + dpos, sum + dsum
				})
				if !slices.Equal(seen, want) {
					t.Logf("Rewrite(%d, %v) visited %v, want %v", key, down, seen, want)
					return false
				}
				n += max(dpos, 0)
			}
		}
		var probes []int64
		for k := int64(-1); k <= domain; k += 1 + rng.Int64N(7) {
			probes = append(probes, k)
		}
		var positions []int
		for p := -1; p <= n; p += 1 + rng.IntN(n/256) {
			positions = append(positions, p)
		}
		for i := 0; i < len(m.pos); i += 1 + rng.IntN(4) {
			positions = append(positions, m.pos[i]-1, m.pos[i], m.pos[i]+1)
		}
		if err := compare(&tr, &m, n, probes, positions); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAscendingInsertsPackBlocks: boundaries inserted in ascending key order
// — a snapshot restore, a radix pass over an empty tree — fill every block
// but the last, so N of them take ⌈N / blockCap⌉ blocks.
func TestAscendingInsertsPackBlocks(t *testing.T) {
	for _, n := range []int{1, blockCap - 1, blockCap, blockCap + 1, 10*blockCap + 7, 278530} {
		var tr Tree
		for k := range n {
			tr.Insert(int64(k), k, int64(k))
		}
		if err := tr.Check(); err != nil {
			t.Fatal(err)
		}
		if want := (n + blockCap - 1) / blockCap; len(tr.blocks) != want {
			t.Fatalf("%d ascending inserts use %d blocks, want %d", n, len(tr.blocks), want)
		}
	}
}

// FloorPos searches by position: among boundaries sharing a position
// (zero-width pieces) it returns the largest key and hands back that
// boundary's sum.
func TestFloorPos(t *testing.T) {
	var tr Tree
	for _, b := range []struct {
		key int64
		pos int
	}{{10, 0}, {20, 5}, {30, 5}, {40, 5}, {50, 9}, {60, 9}} {
		tr.Insert(b.key, b.pos, int64(100*b.pos))
	}
	for _, c := range []struct {
		pos      int
		floorKey int64
		floorOK  bool
	}{
		{-1, 0, false},
		{0, 10, true},
		{4, 10, true},
		{5, 40, true},
		{8, 40, true},
		{9, 60, true},
		{99, 60, true},
	} {
		k, p, sum, ok := tr.FloorPos(c.pos)
		if ok != c.floorOK || (ok && (k != c.floorKey || p > c.pos || sum != int64(100*p))) {
			t.Errorf("FloorPos(%d) = %d,%d,%d,%v; want key %d ok %v", c.pos, k, p, sum, ok, c.floorKey, c.floorOK)
		}
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

// BenchmarkLocate is a converged wire_point part's lookup: 278 530
// boundaries at random keys, inserted in random order, probed at random
// keys. It is what the block capacity was picked with.
func BenchmarkLocate(b *testing.B) {
	const n = 278530
	rng := rand.New(rand.NewPCG(2, 2))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int64()
	}
	var tr Tree
	sorted := slices.Sorted(slices.Values(keys))
	for _, k := range keys {
		i, _ := slices.BinarySearch(sorted, k)
		tr.Insert(k, 16*i, int64(i))
	}
	probes := make([]int64, 1<<16)
	for i := range probes {
		probes[i] = rng.Int64()
	}
	for i := 0; b.Loop(); i++ {
		tr.Locate(probes[i&(len(probes)-1)], 16*n)
	}
}
