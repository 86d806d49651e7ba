package engine

// Tests of the caller's-goroutine paths of adaptive and holistic selects
// (shard.Column.CountSum): a converged lookup and a small crack run no
// fan-out worker, they are exact, and they stay exact while writes and merges
// land in the very range they read. Run with -race.

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"holistic/internal/shard"
)

// countFanOut installs a select hook that counts fan-out workers.
func countFanOut(sc *shard.Column) *atomic.Int64 {
	var n atomic.Int64
	sc.SetSelectHook(func(int) { n.Add(1) })
	return &n
}

// TestConvergedSelectRunsInline: once a narrow range is cracked on every
// shard, selecting it again starts no fan-out worker — the hook, which fires
// in each of them, stays silent — answers exactly, and still records the
// query with the tuner for every part. The column is big enough for its first
// touch, and for a crack of the large piece next to the range, to pass the
// fan-out rule.
func TestConvergedSelectRunsInline(t *testing.T) {
	for _, s := range []Strategy{StrategyAdaptive, StrategyHolistic} {
		t.Run(s.String(), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(311, 312))
			seed := randomVals(rng, 1<<18, 1<<20) // 65 536 rows a shard
			e := newEngineWithData(t, Config{Strategy: s, Seed: 17, Shards: 4, TargetPieceSize: 64}, seed)
			defer e.Close()
			sc, err := e.column("R", "A")
			if err != nil {
				t.Fatal(err)
			}
			const lo, hi = 1 << 18, 1<<18 + 1<<9 // ~128 rows, ~32 a shard
			fanned := countFanOut(sc)
			if _, err := e.Select("R", "A", lo, hi); err != nil {
				t.Fatal(err)
			}
			if fanned.Load() != 4 {
				t.Fatalf("cold select ran %d fan-out workers, want 4", fanned.Load())
			}
			noted := func() uint64 { // adaptive runs no tuner
				if s != StrategyHolistic {
					return 0
				}
				return e.tuner.Queries("R.A")
			}
			before := noted()
			wc, ws := naiveRange(seed, lo, hi)
			for i := 0; i < 5; i++ {
				r, err := e.Select("R", "A", lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				if r.Count != wc || r.Sum != ws {
					t.Fatalf("converged select %d: got %d/%d want %d/%d", i, r.Count, r.Sum, wc, ws)
				}
			}
			if fanned.Load() != 4 {
				t.Fatalf("converged selects ran %d fan-out workers, want 0", fanned.Load()-4)
			}
			if got := noted() - before; s == StrategyHolistic && got != 5 {
				t.Fatalf("tuner noted %d of 5 inline selects", got)
			}
			// A range with one bound never queried: every part declines with
			// the ~49 000 values above hi as its estimate, which pays for the
			// hand-off.
			r, err := e.Select("R", "A", lo, hi+77)
			if wc, ws := naiveRange(seed, lo, hi+77); err != nil || r.Count != wc || r.Sum != ws {
				t.Fatalf("half-cracked select: %+v, %v; want %d/%d", r, err, wc, ws)
			}
			if fanned.Load() != 8 {
				t.Fatalf("half-cracked select ran %d fan-out workers, want 4", fanned.Load()-4)
			}
		})
	}
}

// TestSmallCrackRunsInline: a select that has to crack, but only pieces far
// below the fan-out threshold, runs every part on the caller's goroutine —
// the hook stays silent — answers exactly, leaves the new boundaries behind
// and is noted by the tuner once like any other select.
func TestSmallCrackRunsInline(t *testing.T) {
	for _, s := range []Strategy{StrategyAdaptive, StrategyHolistic} {
		t.Run(s.String(), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(313, 314))
			seed := randomVals(rng, 40000, 1<<20) // 10 000 rows a shard: no crack can pay
			e := newEngineWithData(t, Config{Strategy: s, Seed: 17, Shards: 4, TargetPieceSize: 64}, seed)
			defer e.Close()
			sc, err := e.column("R", "A")
			if err != nil {
				t.Fatal(err)
			}
			fanned := countFanOut(sc)
			const lo, hi = 1 << 18, 1<<18 + 1<<12
			pieces := 4 // uncracked: one piece a part
			for i, q := range [][2]int64{
				{lo, hi},          // first touch of a small part: materialise and crack in three
				{lo, hi + 77},     // half-cracked: lo is a boundary, hi+77 is not
				{lo - 500, hi},    // the other half
				{lo + 9, hi + 99}, // both bounds new, in different pieces
				{lo + 9, hi + 99}, // and now converged
			} {
				r, err := e.Select("R", "A", q[0], q[1])
				wc, ws := naiveRange(seed, q[0], q[1])
				if err != nil || r.Count != wc || r.Sum != ws {
					t.Fatalf("select %d [%d, %d): %+v, %v; want %d/%d", i, q[0], q[1], r, err, wc, ws)
				}
				got, _ := sc.PieceStats()
				if i < 4 && got <= pieces {
					t.Fatalf("select %d cracked nothing: %d pieces before and after", i, got)
				}
				pieces = got
			}
			if fanned.Load() != 0 {
				t.Fatalf("small cracks ran %d fan-out workers, want 0", fanned.Load())
			}
			if tn := e.tuner; tn != nil && tn.Queries("R.A") != 5 {
				t.Fatalf("tuner noted %d of 5 selects", tn.Queries("R.A"))
			}
			if err := sc.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConvergedSelectRacesWrites: readers select one converged range while a
// writer inserts into it and deletes from it one row a statement, and merges
// move those rows from the ingest queues into the cracked copies. A select is
// exact per shard, not a snapshot across shards: each part is read at its own
// instant between the select's start and end. So with the statements the
// writer finished before a read began as the base, the answer must be the
// base plus, for each part, some prefix of the statements that landed on that
// part before the read ended. Every statement moves one row of a value no
// other row holds, so a torn read of a part — a row counted in both its queue
// and its cracked copy, or in neither, which is what holding the part's
// shared latch across both reads rules out — matches no such combination.
func TestConvergedSelectRacesWrites(t *testing.T) { selectRacesWrites(t, false) }

// TestSmallCrackRacesWrites is the same race with readers whose bounds never
// repeat: the seed holds nothing within 2^30 of either side of the range, so
// every read asks for the same rows through two boundaries nobody made yet,
// and each part cracks them in — partitioning everything below, then
// everything above the range — on the reader's goroutine while inserts,
// deletes and merges ripple through the boundaries it is adding to.
func TestSmallCrackRacesWrites(t *testing.T) { selectRacesWrites(t, true) }

func selectRacesWrites(t *testing.T, freshBounds bool) {
	const (
		n, domain  = 20000, int64(1 << 16)
		lo, hi     = int64(1 << 12), int64(1<<12 + 1<<11) // ~600 rows, ~150 a shard
		statements = 600
		readers    = 3
		shards     = 4
	)
	rng := rand.New(rand.NewPCG(321, 322))
	seed := make([]int64, n)
	for i := range seed {
		seed[i] = rng.Int64N(domain/2) * 2 // even: inserted values are odd, hence unique
		switch {
		case !freshBounds:
		case seed[i] < lo:
			seed[i] -= 1 << 30
		case seed[i] >= hi:
			seed[i] += 1 << 30
		}
	}
	e := newEngineWithData(t, Config{Strategy: StrategyHolistic, Seed: 19, Shards: shards, TargetPieceSize: 64}, seed)
	defer e.Close()
	tab, err := e.Table("R")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := e.column("R", "A")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Select("R", "A", lo, hi); err != nil { // crack both bounds on every shard
		t.Fatal(err)
	}

	// The plan. Statement k (1-based) changes the range by delta[k] on part
	// part[k]: the one writer appends rows n, n+1, ... and row g lives on
	// part g % shards; a delete removes a row this plan inserted earlier.
	type state struct {
		count int
		sum   int64
	}
	type step struct {
		insert bool
		v      int64
		part   int
		delta  state
	}
	type liveRow struct {
		v    int64
		part int
	}
	c0, s0 := naiveRange(seed, lo, hi)
	base := []state{{c0, s0}} // base[k]: the range after statements 1..k
	plan := []step{{}}
	var live []liveRow
	for i, row := 0, n; len(plan) <= statements; i++ {
		var st step
		if len(live) > 0 && i%3 == 2 {
			k := rng.IntN(len(live))
			st = step{false, live[k].v, live[k].part, state{-1, -live[k].v}}
			live = append(live[:k], live[k+1:]...)
		} else {
			v := lo + int64(2*i+1)%(hi-lo) // odd offsets from an even lo, each used once
			st = step{true, v, row % shards, state{1, v}}
			live = append(live, liveRow{v, st.part})
			row++
		}
		plan = append(plan, st)
		cur := base[len(base)-1]
		base = append(base, state{cur.count + st.delta.count, cur.sum + st.delta.sum})
	}
	// explains reports whether got is base[from] plus a per-part prefix of
	// statements from+1..to. It meets in the middle: the sums of every pair
	// of prefixes of the first half of the parts go in a set, and each sum
	// of prefixes of the second half looks up what it leaves of got, so a
	// window of w statements costs about (w/4+1)^2 steps, not (w/4+1)^4.
	add := func(a, b state) state { return state{a.count + b.count, a.sum + b.sum} }
	explains := func(from, to int64, got state) bool {
		var prefixes [shards][]state // prefixes[p][i]: part p's first i deltas
		for p := range prefixes {
			prefixes[p] = []state{{}}
		}
		for k := from + 1; k <= to; k++ {
			pp := prefixes[plan[k].part]
			prefixes[plan[k].part] = append(pp, add(pp[len(pp)-1], plan[k].delta))
		}
		// sums lists the sum of every choice of one prefix per part.
		sums := func(parts [][]state) []state {
			out := []state{{}}
			for _, pp := range parts {
				next := make([]state, 0, len(out)*len(pp))
				for _, a := range out {
					for _, b := range pp {
						next = append(next, add(a, b))
					}
				}
				out = next
			}
			return out
		}
		low := map[state]bool{}
		for _, a := range sums(prefixes[:shards/2]) {
			low[add(base[from], a)] = true
		}
		for _, b := range sums(prefixes[shards/2:]) {
			if low[state{got.count - b.count, got.sum - b.sum}] {
				return true
			}
		}
		return false
	}

	var started, finished atomic.Int64 // statements begun / completed by the writer
	var done atomic.Bool
	var reads, widen atomic.Int64
	fanned := countFanOut(sc)
	piecesBefore, _ := sc.PieceStats()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				w := int64(0)
				if freshBounds {
					w = widen.Add(1)
				}
				from := finished.Load()
				res, err := e.Select("R", "A", lo-w, hi+w)
				to := started.Load()
				if err != nil {
					t.Error(err)
					return
				}
				reads.Add(1)
				if !explains(from, to, state{res.Count, res.Sum}) {
					t.Errorf("select saw count=%d sum=%d: not %+v plus per-part prefixes of statements %d..%d",
						res.Count, res.Sum, base[from], from+1, to)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // a second merger, so merges also race each other and the writer
		defer wg.Done()
		for !done.Load() {
			e.MergePending()
		}
	}()
	for k := 1; k <= statements; k++ {
		for reads.Load() < int64(k-1) && !t.Failed() {
			runtime.Gosched() // pace the writer: at least one read per statement
		}
		started.Store(int64(k))
		if st := plan[k]; st.insert {
			var row uint32
			if row, err = tab.InsertRows([][]int64{{st.v}}); err == nil && int(row)%shards != st.part {
				t.Fatalf("statement %d: row %d is not on part %d", k, row, st.part)
			}
		} else {
			var deleted int
			if deleted, err = tab.DeleteWhereIn("A", []int64{st.v}); err == nil && deleted != 1 {
				t.Fatalf("statement %d: delete of %d removed %d rows", k, st.v, deleted)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		finished.Store(int64(k))
		if k%5 == 0 {
			tab.MergePending()
		}
	}
	done.Store(true)
	wg.Wait()
	sc.SetSelectHook(nil)

	final := base[statements]
	if res, err := e.Select("R", "A", lo, hi); err != nil || res.Count != final.count || res.Sum != final.sum {
		t.Fatalf("quiesced select: %+v, %v; want %+v", res, err, final)
	}
	// Every merged write rippled through the boundaries above it: each part's
	// boundary sums must still equal a scan of its cracked copy.
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if freshBounds {
		// The test is about cracks on the readers' goroutines: every read must
		// have cracked, none of them through a fan-out worker.
		pieces, _ := sc.PieceStats()
		if fanned.Load() != 0 || int64(pieces-piecesBefore) < reads.Load() {
			t.Fatalf("%d reads added %d pieces and ran %d fan-out workers, want a crack a read and no worker",
				reads.Load(), pieces-piecesBefore, fanned.Load())
		}
		return
	}
	// The test is about the inline path: reads must have taken it.
	if inline := reads.Load() - fanned.Load()/shards; inline <= 0 {
		t.Fatalf("no read of %d ran inline (%d fan-out workers)", reads.Load(), fanned.Load())
	} else {
		t.Logf("%d reads, %d of them inline", reads.Load(), inline)
	}
}
