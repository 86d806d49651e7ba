package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"
)

// part is a Column that only has a name: the sketch tests never step.
type part string

func (p part) Name() string                 { return string(p) }
func (part) PieceStats() (pieces, n int)    { return 0, 0 }
func (part) PendingOps() int                { return 0 }
func (part) MergeStep(int) int              { return 0 }
func (part) RandomCrack(rng *rand.Rand) int { return 0 }

// parts returns n parts of column name, named the way shard names them.
func parts(name string, n int) []Column {
	ps := make([]Column, n)
	for i := range ps {
		ps[i] = part(fmt.Sprintf("%s#%d", name, i))
	}
	return ps
}

// advance jumps the decay clock by gap observations without noting any.
func (t *Tuner) advance(gap uint64) {
	t.smu.Lock()
	defer t.smu.Unlock()
	t.clock += gap
}

// TestSketchRandomPrograms runs random programs of registrations (re-
// registrations included), notes, seeds of every kind of weight, notes on
// unregistered names and clock jumps of up to 2^62. After each step every
// part bids a finite share in [0, 1], the parts' shares sum to 1, and
// Queries counts the observations since the column's last registration.
func TestSketchRandomPrograms(t *testing.T) {
	names := []string{"R.A", "R.B", "S.A", "S.B", "ghost"} // ghost is never registered
	weights := []float64{0, -3, math.NaN(), math.Inf(1), math.MaxFloat64, 1, 7, 100, 1e6, maxWeight}
	gaps := []uint64{2, 700, 1 << 20, 1 << 40, 1 << 62}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 99))
		tn := NewTuner(Config{}, nil)
		nparts := map[string]int{}
		queries := map[string]uint64{}
		note := func(name string, w float64) {
			if _, ok := nparts[name]; ok && w > 0 {
				queries[name]++
			}
		}
		for step := range 400 {
			name := names[rng.IntN(len(names))]
			switch op := rng.IntN(20); {
			case op == 0 && name != "ghost":
				n := 1 + rng.IntN(4)
				tn.RegisterColumn(name, parts(name, n)...)
				nparts[name] += n
				queries[name] = 0
			case op == 1:
				w := weights[rng.IntN(len(weights))]
				tn.observe(name, w)
				note(name, w)
			case op == 2:
				w := []int{0, -5, 1, 50, math.MaxInt}[rng.IntN(5)]
				tn.SeedWorkload(name, w)
				note(name, float64(w))
			case op == 3 && rng.IntN(4) == 0:
				gap := gaps[rng.IntN(len(gaps))]
				if rng.IntN(2) == 0 {
					gap = rng.Uint64N(1<<62) + 1
				}
				tn.advance(gap)
			default:
				tn.NoteQuery(name, 0, 1)
				note(name, 1)
			}
			sum := 0.0
			for _, name := range names {
				f := tn.Frequency(name)
				if math.IsNaN(f) || f < 0 || f > 1+1e-12 {
					t.Fatalf("seed %d step %d: Frequency(%s) = %g", seed, step, name, f)
				}
				sum += float64(nparts[name]) * f
				if q := tn.Queries(name); q != queries[name] {
					t.Fatalf("seed %d step %d: Queries(%s) = %d, want %d", seed, step, name, q, queries[name])
				}
			}
			if len(nparts) > 0 && math.Abs(sum-1) > 1e-9 {
				t.Fatalf("seed %d step %d: the parts' shares sum to %.12f", seed, step, sum)
			}
		}
	}
}

func TestSketchUnregisteredColumn(t *testing.T) {
	tn := NewTuner(Config{}, nil)
	tn.NoteQuery("ghost", 0, 1) // must not panic
	if tn.Queries("ghost") != 0 {
		t.Fatal("unregistered column accumulated queries")
	}
	if tn.Frequency("ghost") != 0 {
		t.Fatal("unregistered column has frequency")
	}
	if _, ok := tn.sketches["ghost"]; ok {
		t.Fatal("ghost registered")
	}
	if tn.clock != 1 {
		t.Fatalf("clock %d: a note on an unknown column still ticks it", tn.clock)
	}
}

func TestSketchQueryCounting(t *testing.T) {
	tn := NewTuner(Config{}, nil)
	tn.RegisterColumn("a", parts("a", 4)...)
	tn.RegisterColumn("b", parts("b", 1)...)
	for range 30 {
		tn.NoteQuery("a", 0, 1)
	}
	for range 10 {
		tn.NoteQuery("b", 0, 1)
	}
	if tn.Queries("a") != 30 || tn.Queries("b") != 10 {
		t.Fatalf("counts %d/%d", tn.Queries("a"), tn.Queries("b"))
	}
	if tn.clock != 40 {
		t.Fatalf("clock %d: a note on a 4-part column is one tick", tn.clock)
	}
	fa, fb := tn.Frequency("a"), tn.Frequency("b")
	if fa <= fb {
		t.Fatalf("frequency ordering wrong: %f vs %f", fa, fb)
	}
	if math.Abs(4*fa+fb-1) > 1e-9 {
		t.Fatalf("the five parts' frequencies sum to %f", 4*fa+fb)
	}
}

func TestSketchNoKnowledgePrior(t *testing.T) {
	tn := NewTuner(Config{}, nil)
	for i, col := range []string{"a", "b", "c"} {
		tn.RegisterColumn(col, parts(col, i+1)...)
	}
	// With zero queries, every part gets an equal share: the tuner's
	// round-robin prior for the paper's "No Knowledge" case.
	for _, col := range []string{"a", "b", "c"} {
		if f := tn.Frequency(col); math.Abs(f-1.0/6) > 1e-9 {
			t.Fatalf("prior frequency of %s = %f, want 1/6", col, f)
		}
	}
}

func TestSketchDecayShiftsFrequency(t *testing.T) {
	tn := NewTuner(Config{}, nil)
	tn.RegisterColumn("old", parts("old", 2)...)
	tn.RegisterColumn("new", parts("new", 2)...)
	for range 50 {
		tn.NoteQuery("old", 0, 1)
	}
	for range 50 {
		tn.NoteQuery("new", 0, 1)
	}
	// The recent burst on "new" must dominate the equally sized old burst.
	if tn.Frequency("new") <= tn.Frequency("old") {
		t.Fatalf("decay failed: new=%f old=%f", tn.Frequency("new"), tn.Frequency("old"))
	}
}

func TestSketchRegisterResets(t *testing.T) {
	tn := NewTuner(Config{}, nil)
	tn.RegisterColumn("a", parts("a", 1)...)
	tn.RegisterColumn("b", parts("b", 1)...)
	for range 10 {
		tn.NoteQuery("a", 0, 1)
	}
	tn.RegisterColumn("a", parts("a", 1)...) // reset
	if tn.Queries("a") != 0 {
		t.Fatal("re-registration kept old counts")
	}
	// The reset dropped a's mass: with none left anywhere, every part —
	// a's two and b's one — is back at the prior.
	for _, col := range []string{"a", "b"} {
		if f := tn.Frequency(col); math.Abs(f-1.0/3) > 1e-9 {
			t.Fatalf("after the reset Frequency(%s) = %f, want 1/3", col, f)
		}
	}
}

// TestSketchFrequenciesSumToOne: for any mix of queries over registered
// columns, the parts' frequencies always sum to ~1.
func TestSketchFrequenciesSumToOne(t *testing.T) {
	f := func(hits []uint8) bool {
		tn := NewTuner(Config{}, nil)
		names := []string{"a", "b", "c", "d"}
		for i, n := range names {
			tn.RegisterColumn(n, parts(n, i+1)...)
		}
		for _, h := range hits {
			tn.NoteQuery(names[int(h)%len(names)], 0, 1)
		}
		sum := 0.0
		for i, n := range names {
			f := tn.Frequency(n)
			if f < 0 || f > 1 {
				return false
			}
			sum += float64(i+1) * f
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A jump of the clock across a large gap must decay every mass smoothly to
// zero — no NaN, no negative values — and Frequency falls back to the
// equal-share prior once all knowledge has aged out.
func TestSketchLargeClockGap(t *testing.T) {
	tn := NewTuner(Config{}, nil)
	tn.RegisterColumn("a", parts("a", 2)...)
	tn.RegisterColumn("b", parts("b", 2)...)
	for range 10 {
		tn.NoteQuery("a", 0, 1)
	}
	if f := tn.Frequency("a"); f < 0.49 {
		t.Fatalf("fresh frequency = %f, want ~1/2 on each of a's parts", f)
	}
	for _, gap := range []uint64{1 << 20, 1 << 40, 1 << 62} {
		tn.advance(gap)
		fa, fb := tn.Frequency("a"), tn.Frequency("b")
		if math.IsNaN(fa) || math.IsNaN(fb) || fa < 0 || fb < 0 {
			t.Fatalf("gap %d: frequencies a=%f b=%f", gap, fa, fb)
		}
	}
	if fa := tn.Frequency("a"); fa != 0.25 {
		t.Fatalf("aged-out frequency = %f, want the equal share 0.25", fa)
	}
	// New queries after the gap must re-establish statistics cleanly.
	tn.NoteQuery("b", 0, 1)
	if f := tn.Frequency("b"); f < 0.49 {
		t.Fatalf("post-gap frequency = %f, want ~1/2", f)
	}
}

// Observations that carry no usable mass change nothing: a zero, negative or
// NaN weight, and a query on an unknown column. A hostile weight is capped,
// so the decayed mass stays finite and every frequency a number.
func TestSketchIgnoresDegenerateInput(t *testing.T) {
	tn := NewTuner(Config{}, nil)
	tn.RegisterColumn("c", parts("c", 1)...)
	tn.RegisterColumn("d", parts("d", 1)...)
	tn.SeedWorkload("c", 0)
	tn.SeedWorkload("c", -3)
	tn.observe("c", math.NaN())
	tn.NoteQuery("missing", 0, 1)
	if q := tn.Queries("c"); q != 0 {
		t.Fatalf("degenerate weights noted %d queries, want 0", q)
	}
	if f := tn.Frequency("c"); f != 0.5 {
		t.Fatalf("frequency after degenerate input = %f, want the equal share 0.5", f)
	}
	tn.observe("c", math.Inf(1))
	tn.observe("c", math.MaxFloat64)
	tn.SeedWorkload("c", math.MaxInt)
	tn.NoteQuery("d", 0, 1)
	if m := tn.sketches["c"].mass; math.IsInf(m, 0) || math.IsNaN(m) || m > 3*maxWeight {
		t.Fatalf("hostile weights left decayed mass %g", m)
	}
	fc, fd := tn.Frequency("c"), tn.Frequency("d")
	if math.IsNaN(fc) || math.IsNaN(fd) || fc <= fd || math.Abs(fc+fd-1) > 1e-9 {
		t.Fatalf("frequencies after hostile weights: c=%g d=%g", fc, fd)
	}
}

// TestSketchConcurrent hammers the sketches from several goroutines; run
// with -race: one writer and two Frequency readers per column, and one
// registering a third column. Each part's share stays in [0, 1] throughout.
func TestSketchConcurrent(t *testing.T) {
	tn := NewTuner(Config{}, nil)
	cols := []string{"a", "b"}
	for _, col := range cols {
		tn.RegisterColumn(col, parts(col, 2)...)
	}
	var wg sync.WaitGroup
	for g := range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			col := cols[g/3] // one writer and two readers per column
			for i := range 500 {
				if g%3 == 0 {
					tn.NoteQuery(col, 0, 1)
					continue
				}
				if g == 1 && i == 250 {
					tn.RegisterColumn("c", parts("c", 1)...)
				}
				if f := tn.Frequency(col); f < 0 || f > 1+1e-12 {
					t.Errorf("frequency out of range: %f", f)
					return
				}
			}
		}()
	}
	wg.Wait()
	sum := 2*tn.Frequency("a") + 2*tn.Frequency("b") + tn.Frequency("c")
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("the parts' frequencies sum to %f", sum)
	}
}

// A select on a four-part column is one lock, one map lookup and one decay.
func BenchmarkNoteQuery(b *testing.B) {
	tn := NewTuner(Config{}, nil)
	tn.RegisterColumn("R.A", parts("R.A", 4)...)
	b.ReportAllocs()
	for b.Loop() {
		tn.NoteQuery("R.A", 0, 100)
	}
}
