package shard

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"holistic/internal/costmodel"
	"holistic/internal/cracker"
	"holistic/internal/updates"
)

func naiveRange(vals []int64, lo, hi int64) (int, int64) {
	n, s := 0, int64(0)
	for _, v := range vals {
		if v >= lo && v < hi {
			n++
			s += v
		}
	}
	return n, s
}

func randomVals(rng *rand.Rand, n int, domain int64) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int64N(domain)
	}
	return vals
}

func TestStripingRoutesRows(t *testing.T) {
	vals := []int64{10, 11, 12, 13, 14, 15, 16}
	c, err := NewColumn("R.A", append([]int64{}, vals...), Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() != 3 {
		t.Fatalf("Shards() = %d", c.Shards())
	}
	// Global row g lives in part g%3 at local g/3.
	for g, v := range vals {
		p := c.Parts()[g%3]
		local := g / 3
		p.RLock()
		got := p.vals[local]
		p.RUnlock()
		if got != v {
			t.Fatalf("row %d: part %d local %d holds %d, want %d", g, g%3, local, got, v)
		}
		if gr := p.globalRow(local); gr != uint32(g) {
			t.Fatalf("globalRow round trip: %d -> %d", g, gr)
		}
	}
	// Appends continue the stripe.
	c.AppendAt(7, 17)
	if c.Rows() != 8 {
		t.Fatalf("Rows() = %d after appending row 7, want 8", c.Rows())
	}
	if c.Parts()[7%3].Live() != 3 {
		t.Fatal("append routed to the wrong part")
	}
}

func TestPartNaming(t *testing.T) {
	one, _ := NewColumn("R.A", []int64{1}, Config{Shards: 1})
	if got := one.Parts()[0].Name(); got != "R.A" {
		t.Fatalf("single-shard part name %q, want bare column name", got)
	}
	many, _ := NewColumn("R.A", []int64{1, 2}, Config{Shards: 2})
	for i, p := range many.Parts() {
		if want := fmt.Sprintf("R.A#%d", i); p.Name() != want {
			t.Fatalf("part %d name %q, want %q", i, p.Name(), want)
		}
	}
}

func TestFanOutMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	vals := randomVals(rng, 5000, 10000)
	for _, s := range []int{1, 2, 3, 8} {
		c, err := NewColumn("R.A", append([]int64{}, vals...), Config{Shards: s})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			lo := rng.Int64N(10000)
			hi := lo + rng.Int64N(2000)
			count, sum := c.FanOutCountSum(func(p *Part) (int, int64) {
				return p.ScanCountSum(lo, hi)
			})
			wc, ws := naiveRange(vals, lo, hi)
			if count != wc || sum != ws {
				t.Fatalf("shards=%d [%d,%d): got %d/%d want %d/%d", s, lo, hi, count, sum, wc, ws)
			}
		}
	}
}

func TestCrackedSelectMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	vals := randomVals(rng, 8000, 1<<16)
	c, err := NewColumn("R.A", append([]int64{}, vals...), Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		lo := rng.Int64N(1 << 16)
		hi := lo + rng.Int64N(1<<12) + 1
		count, sum := c.FanOutCountSum(func(p *Part) (int, int64) {
			return p.CrackedSelect(lo, hi)
		})
		wc, ws := naiveRange(vals, lo, hi)
		if count != wc || sum != ws {
			t.Fatalf("[%d,%d): got %d/%d want %d/%d", lo, hi, count, sum, wc, ws)
		}
	}
	for _, p := range c.Parts() {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		p.RLock()
		cracked := p.Cracked() != nil
		p.RUnlock()
		if !cracked {
			t.Fatalf("part %s never cracked", p.Name())
		}
	}
}

// largestPiece returns the size of ix's largest piece.
func largestPiece(ix *cracker.Index) int {
	largest := 0
	ix.ForEachPiece(func(p cracker.Piece) bool {
		largest = max(largest, p.Size())
		return true
	})
	return largest
}

// TestSequentialSweepStaysBounded checks the robustness claim of radix-first
// cracking against query-driven cracking's adversary, a sweep: the sweep over
// the lower half never touches the upper half, so with the radix pass off
// that half stays one piece and every step re-partitions the shrinking tail.
// With the default threshold, the first touch splits the part into buckets,
// and the largest piece and the total partitioning work stay bounded.
func TestSequentialSweepStaysBounded(t *testing.T) {
	const n, steps = 1 << 19, 500
	// 0..n-1 shuffled: the range [a, b) holds exactly b-a values.
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	rand.New(rand.NewPCG(7, 8)).Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	sweep := func(radixMinPiece int) (maxPiece int, work int64) {
		c, err := NewColumn("R.A", slices.Clone(vals), Config{Shards: 1, radixMin: radixMinPiece})
		if err != nil {
			t.Fatal(err)
		}
		p := c.Parts()[0]
		const width = n / 2 / steps
		for lo := int64(0); lo+width <= n/2; lo += width {
			hi := lo + width
			if count, sum := p.CrackedSelect(lo, hi); count != width || sum != (lo+hi-1)*width/2 {
				t.Fatalf("radix %d: [%d,%d) = %d/%d, want %d/%d", radixMinPiece, lo, hi, count, sum, width, (lo+hi-1)*width/2)
			}
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		ix := p.Cracked()
		return largestPiece(ix), ix.Work()
	}
	if mp, work := sweep(0); mp > costmodel.DefaultRadixMinPiece || work >= 4*n {
		t.Fatalf("default radix threshold: largest piece %d (bound %d), crack work %d (bound %d)",
			mp, costmodel.DefaultRadixMinPiece, work, 4*n)
	}
	if testing.Short() {
		return // the premise partitions ~2·10^8 values: seconds under -race
	}
	if mp, _ := sweep(-1); mp < n/3 {
		t.Fatalf("radix off: largest piece %d < n/3 — the sweep no longer leaves the upper half whole", mp)
	}
}

// TestConvergedSelectDeclines walks the conditions under which a part's
// Probe refuses the inline lookup — no cracked copy yet, a bound that is not a
// crack boundary — and checks that each refusal builds and cracks nothing
// (an unmaterialised part stays so) and estimates
// exactly the values CrackedSelect then partitions (the pieces the missing
// bounds fall in, once each; every live row without a cracked copy), that
// CrackedSelect answers as it always did, and that the lookup is taken and
// exact once the condition is gone, at any region width, pending inserts and
// deletes included.
func TestConvergedSelectDeclines(t *testing.T) {
	// 0..n-1 shuffled: the range [a, b) holds exactly b-a values.
	const n = 12288
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	rand.New(rand.NewPCG(5, 6)).Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	newPart := func(cfg Config) *Part {
		c, err := NewColumn("R.A", append([]int64{}, vals...), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c.Parts()[0]
	}
	declines := func(p *Part, why string, lo, hi int64, wantWork int) {
		t.Helper()
		pieces, _ := p.PieceStats()
		fresh := p.Cracked() == nil
		if _, _, work, ok := p.Probe(lo, hi); ok || work != wantWork {
			t.Fatalf("%s: Probe(%d, %d) = work %d, ok %v; want it to decline with %d", why, lo, hi, work, ok, wantWork)
		}
		if fresh && p.Cracked() != nil {
			t.Fatalf("%s: declining materialised the cracked copy", why)
		}
		if after, _ := p.PieceStats(); after != pieces {
			t.Fatalf("%s: declining changed the piece count %d -> %d", why, pieces, after)
		}
		wc, ws := naiveRange(vals, lo, hi)
		if c, s := p.CrackedSelect(lo, hi); c != wc || s != ws {
			t.Fatalf("%s: CrackedSelect(%d, %d) = %d/%d, want %d/%d", why, lo, hi, c, s, wc, ws)
		}
	}

	p := newPart(Config{})
	declines(p, "uncracked part", 100, 200, n) // ... and CrackedSelect cracked [100, 200)
	if c, s, work, ok := p.Probe(100, 200); !ok || c != 100 || work != 0 || s != (100+199)*100/2 {
		t.Fatalf("converged [100, 200): %d/%d work %d ok %v", c, s, work, ok)
	}
	declines(p, "upper bound not a boundary", 100, 300, n-200) // the piece [200, n)
	declines(p, "lower bound not a boundary", 50, 200, 100)    // the piece [0, 100)
	declines(p, "inverted range", 200, 100, 0)
	declines(p, "bounds in two pieces", 25, 250, 50+100) // [0, 50) and [200, 300)
	// A hit costs the same at any width: most of the column runs inline too.
	declines(p, "wide range, both bounds in one piece", 1000, n-1000, n-300)
	if c, s, work, ok := p.Probe(1000, n-1000); !ok || c != n-2000 || work != 0 || s != int64(n-1)*(n-2000)/2 {
		t.Fatalf("converged [1000, %d): %d/%d work %d ok %v", n-1000, c, s, work, ok)
	}

	// Buffered writes are part of the answer.
	p.ingest.Insert(150, uint32(n))
	p.ingest.Delete(vals[7], 7) // whichever value row 7 holds
	want, wantSum := 101, int64((100+199)*100/2+150)
	if v := vals[7]; v >= 100 && v < 200 {
		want, wantSum = want-1, wantSum-v
	}
	if c, s, _, ok := p.Probe(100, 200); !ok || c != want || s != wantSum {
		t.Fatalf("with pending writes: %d/%d ok %v, want %d/%d", c, s, ok, want, wantSum)
	}
	p.MergeStep(0)
	if c, s, _, ok := p.Probe(100, 200); !ok || c != want || s != wantSum {
		t.Fatalf("after the merge: %d/%d ok %v, want %d/%d", c, s, ok, want, wantSum)
	}

	// A tombstoned row is no work: an unmaterialised part declines with its
	// live rows.
	q := newPart(Config{})
	q.deleteLocal(slices.IndexFunc(vals, func(v int64) bool { return v >= 200 }))
	q.MergeStep(0)
	declines(q, "uncracked part with a tombstone", 100, 200, n-1)
}

func TestDeleteAndFirstLive(t *testing.T) {
	vals := []int64{5, 7, 5, 9, 5}
	c, err := NewColumn("R.A", append([]int64{}, vals...), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	row, ok := c.FirstLive(5)
	if !ok || row != 0 {
		t.Fatalf("FirstLive(5) = %d,%v want 0,true", row, ok)
	}
	if v := c.DeleteRow(row); v != 5 {
		t.Fatalf("DeleteRow returned %d", v)
	}
	// The next live 5 in global row order is row 2, even though rows 0 and 2
	// sit in the same part while 4 is in the other.
	row, ok = c.FirstLive(5)
	if !ok || row != 2 {
		t.Fatalf("FirstLive(5) after delete = %d,%v want 2,true", row, ok)
	}
	c.DeleteRow(2)
	c.DeleteRow(4)
	if _, ok := c.FirstLive(5); ok {
		t.Fatal("FirstLive found a deleted value")
	}
	if c.Live() != 2 {
		t.Fatalf("Live() = %d, want 2", c.Live())
	}
	count, sum := c.FanOutCountSum(func(p *Part) (int, int64) { return p.ScanCountSum(0, 100) })
	if count != 2 || sum != 16 {
		t.Fatalf("post-delete scan %d/%d, want 2/16", count, sum)
	}
}

// TestLiveSnapshotFastPathMatchesLoop holds the tombstone-free copy (one
// clone of the base) to the per-row loop it stands in for, on every part of a
// striped column, and checks the loop still runs once a row dies.
func TestLiveSnapshotFastPathMatchesLoop(t *testing.T) {
	vals := randomVals(rand.New(rand.NewPCG(8, 9)), 1003, 1<<40)
	c, err := NewColumn("R.A", append([]int64{}, vals...), Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	check := func(p *Part) {
		t.Helper()
		var want []int64
		for i := 0; i < len(p.vals); i++ {
			if !p.deadLocked(i) {
				want = append(want, vals[p.globalRow(i)])
			}
		}
		if got := p.liveSnapshotLocked(); !slices.Equal(got, want) {
			t.Fatalf("part %d (%d tombstones): snapshot differs from the per-row loop", p.id, p.nDeleted)
		}
	}
	for _, p := range c.Parts() {
		check(p)
	}
	c.DeleteRow(4)
	c.MergePending()
	for _, p := range c.Parts() {
		check(p)
	}
	if p := c.Parts()[4%3]; p.nDeleted != 1 {
		t.Fatalf("part %d has %d tombstones after the delete merged, want 1", p.id, p.nDeleted)
	}
}

// TestSortedIndexPerPart: a sorted part answers every probe, and batched
// merges of inserts and deletes keep it sorted with exact prefix sums.
func TestSortedIndexPerPart(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	vals := randomVals(rng, 3000, 5000)
	c, err := NewColumn("R.A", append([]int64{}, vals...), Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	c.BuildSorted()
	for round := 0; round < 4; round++ {
		if err := c.Validate(); !c.HasSorted() || err != nil {
			t.Fatalf("round %d: sorted %v, %v", round, c.HasSorted(), err)
		}
		// Every part answers from its index in the probe: nothing is left to run.
		lo, hi := rng.Int64N(5000), rng.Int64N(5000)+1000
		count, sum := c.CountSum(lo, hi, updates.AllRows, (*Part).ProbeAt, func(*Part, int64, int64, int64) (int, int64) {
			t.Fatal("a part with a sorted index declined the probe")
			return 0, 0
		})
		if wc, ws := naiveRange(vals, lo, hi); count != wc || sum != ws {
			t.Fatalf("round %d: sorted select %d/%d, want %d/%d", round, count, sum, wc, ws)
		}
		for i := 0; i < 200; i++ {
			v := rng.Int64N(5000)
			c.AppendAt(uint32(len(vals)), v)
			vals = append(vals, v)
			g := rng.IntN(len(vals))
			c.DeleteRow(uint32(g))
			vals[g] = -1 // below every probed range
		}
		c.MergePending()
	}
}

func TestPieceStatsUncracked(t *testing.T) {
	c, _ := NewColumn("R.A", []int64{1, 2, 3, 4, 5}, Config{Shards: 2})
	for _, p := range c.Parts() {
		pieces, n := p.PieceStats()
		if pieces != 1 || n != p.Live() {
			t.Fatalf("uncracked part: pieces=%d n=%d live=%d", pieces, n, p.Live())
		}
	}
	empty, _ := NewColumn("R.B", nil, Config{Shards: 1})
	if pieces, n := empty.Parts()[0].PieceStats(); pieces != 0 || n != 0 {
		t.Fatalf("empty part: pieces=%d n=%d", pieces, n)
	}
}

// TestFanOutRunsPartsConcurrently proves the fan-out is real parallelism: a
// rendezvous hook makes every worker wait until at least two distinct parts
// have entered their select simultaneously. A serial implementation would
// deadlock here and trip the timeout.
func TestFanOutRunsPartsConcurrently(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	vals := randomVals(rng, 10000, 1<<16)
	c, err := NewColumn("R.A", vals, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	inside := map[int]bool{}
	release := make(chan struct{})
	var releaseOnce sync.Once
	timeout := time.After(10 * time.Second)
	c.SetSelectHook(func(part int) {
		mu.Lock()
		inside[part] = true
		n := len(inside)
		mu.Unlock()
		if n >= 2 {
			// Two parts can both see n >= 2 at once.
			releaseOnce.Do(func() { close(release) })
		}
		select {
		case <-release:
		case <-timeout:
			t.Error("fan-out never had 2 parts in flight: selects are serial")
		}
	})
	count, sum := c.FanOutCountSum(func(p *Part) (int, int64) { return p.ScanCountSum(0, 1<<16) })
	c.SetSelectHook(nil)
	wc, ws := naiveRange(vals, 0, 1<<16)
	if count != wc || sum != ws {
		t.Fatalf("got %d/%d want %d/%d", count, sum, wc, ws)
	}
}

func TestAppendFeedsIndexes(t *testing.T) {
	c, _ := NewColumn("R.A", []int64{10, 20, 30, 40}, Config{Shards: 2})
	// Crack both parts first so appends go through pending buffers.
	for _, p := range c.Parts() {
		p.CrackedSelect(0, 100)
	}
	c.AppendAt(4, 25)
	count, sum := c.FanOutCountSum(func(p *Part) (int, int64) { return p.CrackedSelect(0, 100) })
	if count != 5 || sum != 125 {
		t.Fatalf("after append: %d/%d, want 5/125", count, sum)
	}
	if c.Rows() != 5 || c.Live() != 5 {
		t.Fatalf("Rows=%d Live=%d", c.Rows(), c.Live())
	}
}

// bounds reads the part's cached value bounds, the ones a materialising
// crack hands cracker.NewFromBase (ok=false when the part has no rows).
func bounds(p *Part) (lo, hi int64, ok bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.lo, p.hi, len(p.vals) > 0
}

// TestMinMaxCachedThroughAppends: the bounds the load sets ignore
// buffered inserts and stay current once a merge appends rows past either
// end; an empty part has none until a merge gives it rows.
func TestMinMaxCachedThroughAppends(t *testing.T) {
	c, _ := NewColumn("R.A", []int64{5, -3, 9}, Config{Shards: 1})
	p := c.Parts()[0]
	if lo, hi, ok := bounds(p); !ok || lo != -3 || hi != 9 {
		t.Fatalf("bounds = %d,%d,%v, want -3,9,true", lo, hi, ok)
	}
	for i, v := range []int64{-10, 100, 50} {
		c.AppendAt(uint32(3+i), v)
	}
	if lo, hi, _ := bounds(p); lo != -3 || hi != 9 {
		t.Fatalf("bounds consulted buffered inserts: %d,%d", lo, hi)
	}
	c.MergePending()
	if lo, hi, _ := bounds(p); lo != -10 || hi != 100 {
		t.Fatalf("cached bounds stale after merge: %d,%d, want -10,100", lo, hi)
	}

	empty, _ := NewColumn("R.B", nil, Config{Shards: 1})
	q := empty.Parts()[0]
	if _, _, ok := bounds(q); ok {
		t.Fatal("bounds on an empty part reported ok")
	}
	empty.AppendAt(0, 7)
	empty.MergePending()
	if lo, hi, ok := bounds(q); !ok || lo != 7 || hi != 7 {
		t.Fatalf("bounds after first merge = %d,%d,%v, want 7,7,true", lo, hi, ok)
	}
}

// TestPropertyAppendPreservesOrder: rows appended through the ingest queues
// and merged land in each part's storage in row order, at any shard count,
// and the part bounds — read after the first half, kept current by the
// second half's merge — agree with a naive scan.
func TestPropertyAppendPreservesOrder(t *testing.T) {
	f := func(vals []int64, shards uint8) bool {
		c, _ := NewColumn("P.A", nil, Config{Shards: int(shards%4) + 1})
		n := c.Shards()
		for g, v := range vals {
			if g == len(vals)/2 {
				c.MergePending()
				for _, p := range c.Parts() {
					bounds(p)
				}
			}
			c.AppendAt(uint32(g), v)
		}
		c.MergePending()
		for g, v := range vals {
			if c.Parts()[g%n].vals[g/n] != v {
				return false
			}
		}
		if len(vals) == 0 {
			return true
		}
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for _, p := range c.Parts() {
			if plo, phi, ok := bounds(p); ok {
				lo, hi = min(lo, plo), max(hi, phi)
			}
		}
		return lo == slices.Min(vals) && hi == slices.Max(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
