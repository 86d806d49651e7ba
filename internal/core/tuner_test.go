package core

import (
	"math/rand/v2"
	"sync"
	"testing"

	"holistic/internal/cracker"
	"holistic/internal/stats"
)

// fakeColumn implements Column over an in-memory cracker index, which
// latches itself, with no update queue.
type fakeColumn struct {
	name string
	ix   *cracker.Index
}

func newFakeColumn(name string, n int, domain int64, seed uint64) *fakeColumn {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	vals := make([]int64, n)
	rows := make([]uint32, n)
	for i := range vals {
		vals[i] = rng.Int64N(domain)
		rows[i] = uint32(i)
	}
	return &fakeColumn{name: name, ix: cracker.New(vals, rows)}
}

func (f *fakeColumn) Name() string                       { return f.name }
func (f *fakeColumn) PieceStats() (pieces, n int)        { return f.ix.Pieces(), f.ix.Len() }
func (f *fakeColumn) RangePieceAvg(lo, hi int64) float64 { return f.ix.RangePieceAvg(lo, hi) }
func (f *fakeColumn) PendingOps() int                    { return 0 }
func (f *fakeColumn) MergeStep(int) int                  { return 0 }
func (f *fakeColumn) RandomCrack(rng *rand.Rand) int     { return f.ix.RandomCrack(rng) }
func (f *fakeColumn) pieces() int                        { return f.ix.Pieces() }
func (f *fakeColumn) RefineRange(rng *rand.Rand, lo, hi int64, target float64, cracks int) int {
	return f.ix.RefineRange(rng, lo, hi, target, cracks)
}

func TestStepOnEmptyTuner(t *testing.T) {
	tn := NewTuner(Config{}, nil)
	if w, res := tn.TryStep(nil); res != StepExhausted || w != 0 {
		t.Fatalf("TryStep on empty tuner: %d,%v", w, res)
	}
	if a, w := tn.RunActions(10); a != 0 || w != 0 {
		t.Fatalf("RunActions on empty tuner: %d,%d", a, w)
	}
}

func TestNoKnowledgeSpreadsRoundRobin(t *testing.T) {
	tn := NewTuner(Config{TargetPieceSize: 16, Seed: 1}, nil)
	cols := make([]*fakeColumn, 4)
	for i := range cols {
		cols[i] = newFakeColumn(string(rune('a'+i)), 4096, 1<<20, uint64(i+1))
		tn.Register(cols[i], 0, 1<<20)
	}
	// The paper's "No Knowledge" case: no queries recorded, equal priors —
	// actions must spread across all columns, not pile onto one.
	actions, work := tn.RunActions(40)
	if actions != 40 {
		t.Fatalf("ran %d actions", actions)
	}
	if work <= 0 {
		t.Fatal("no work done")
	}
	for _, c := range cols {
		if c.pieces() < 5 {
			t.Fatalf("column %s got only %d pieces: not spread round-robin", c.Name(), c.pieces())
		}
	}
	if tn.Actions() != 40 {
		t.Fatalf("Actions() = %d", tn.Actions())
	}
}

func TestKnowledgeFocusesActions(t *testing.T) {
	tn := NewTuner(Config{TargetPieceSize: 16, Seed: 2}, nil)
	hot := newFakeColumn("hot", 4096, 1<<20, 11)
	cold := newFakeColumn("cold", 4096, 1<<20, 12)
	tn.Register(hot, 0, 1<<20)
	tn.Register(cold, 0, 1<<20)
	// Heavily skewed observed workload.
	for i := 0; i < 200; i++ {
		tn.NoteQuery("hot", 100, 200)
	}
	tn.RunActions(30)
	if hot.pieces() <= cold.pieces()*3 {
		t.Fatalf("actions not focused: hot=%d cold=%d pieces", hot.pieces(), cold.pieces())
	}
}

func TestSeedWorkloadActsLikeKnowledge(t *testing.T) {
	tn := NewTuner(Config{TargetPieceSize: 16, Seed: 3}, nil)
	seeded := newFakeColumn("seeded", 4096, 1<<20, 21)
	other := newFakeColumn("other", 4096, 1<<20, 22)
	tn.Register(seeded, 0, 1<<20)
	tn.Register(other, 0, 1<<20)
	// A-priori knowledge, no real queries yet (the paper's "Some Idle Time
	// and Enough Knowledge" case).
	tn.SeedWorkload("seeded", 0, 1<<20, 100)
	tn.RunActions(30)
	if seeded.pieces() <= other.pieces()*3 {
		t.Fatalf("seeding ignored: seeded=%d other=%d pieces", seeded.pieces(), other.pieces())
	}
}

func TestConvergenceStopsActions(t *testing.T) {
	// Tiny column with a huge target: converged immediately.
	tn := NewTuner(Config{TargetPieceSize: 1 << 20, Seed: 4}, nil)
	c := newFakeColumn("a", 1000, 1<<10, 31)
	tn.Register(c, 0, 1<<10)
	actions, _ := tn.RunActions(50)
	if actions != 0 {
		t.Fatalf("converged column still got %d actions", actions)
	}
	// Once pieces fit "in cache", further idle time is left unused —
	// the paper's observed plateau.
	if _, res := tn.TryStep(nil); res != StepExhausted {
		t.Fatal("TryStep reported work available on converged catalog")
	}
}

// A step over a converged catalog scores every candidate and allocates
// nothing: the idle pool polls it on every tick of every quiet period.
func TestTryStepExhaustedZeroAlloc(t *testing.T) {
	tn := NewTuner(Config{TargetPieceSize: 1 << 20, Seed: 12}, nil)
	for i := 0; i < 4; i++ {
		name := string(rune('a' + i))
		tn.Register(newFakeColumn(name, 1000, 1<<10, uint64(100+i)), 0, 1<<10)
		tn.NoteQuery(name, 0, 100)
	}
	if _, res := tn.TryStep(nil); res != StepExhausted {
		t.Fatalf("converged catalog: %v, want StepExhausted", res)
	}
	if allocs := testing.AllocsPerRun(100, func() { tn.TryStep(nil) }); allocs != 0 {
		t.Fatalf("exhausted TryStep allocates %.1f times, want 0", allocs)
	}
}

func TestRunActionsConvergesEventually(t *testing.T) {
	tn := NewTuner(Config{TargetPieceSize: 256, Seed: 5}, nil)
	c := newFakeColumn("a", 2048, 1<<16, 41)
	tn.Register(c, 0, 1<<16)
	actions, _ := tn.RunActions(10000)
	if actions == 0 || actions == 10000 {
		t.Fatalf("expected convergence partway, ran %d", actions)
	}
	// avg piece size must now be at or below target.
	if avg := c.ix.AvgPieceSize(); avg > 256 {
		t.Fatalf("avg piece %f above target after convergence", avg)
	}
}

func TestRankingOrder(t *testing.T) {
	tn := NewTuner(Config{TargetPieceSize: 16, Seed: 6}, nil)
	hot := newFakeColumn("hot", 4096, 1<<20, 51)
	cold := newFakeColumn("cold", 4096, 1<<20, 52)
	tn.Register(hot, 0, 1<<20)
	tn.Register(cold, 0, 1<<20)
	for i := 0; i < 50; i++ {
		tn.NoteQuery("hot", 0, 1000)
	}
	// The queried column outranks the unqueried one, which cannot rank at
	// all: every step refines the hot column.
	for i := 0; i < 4; i++ {
		if _, res := tn.TryStep(nil); res != StepWorked {
			t.Fatalf("step %d: %v", i, res)
		}
	}
	if hot.pieces() <= 1 || cold.pieces() != 1 {
		t.Fatalf("after 4 steps hot has %d pieces, cold %d; want hot refined first", hot.pieces(), cold.pieces())
	}
}

// RunActionsParallel with more workers than refinable shards: the surplus
// workers spin contended and give up, and the slots they had claimed must
// still be spent. Run with -count=50 on >= 2 cores; it lost one action in
// roughly every third run before the fix.
func TestRunActionsParallelSpendsForfeitedSlots(t *testing.T) {
	tn := NewTuner(Config{TargetPieceSize: 2, Seed: 13}, nil)
	c := newFakeColumn("a", 1<<16, 1<<30, 63)
	tn.Register(c, 0, 1<<30)
	tn.NoteQuery("a", 0, 100)
	const n = 400
	actions, work := tn.RunActionsParallel(n, 4)
	if actions != n || tn.Actions() != n {
		t.Fatalf("ran %d actions (tuner counted %d, contended %d), want %d",
			actions, tn.Actions(), tn.Contended(), n)
	}
	if work <= 0 {
		t.Fatal("no work done")
	}
}

// MaybeBoost and Boosts remain only for the benchmark rig: on a range queried
// over and over, MaybeBoost must still touch nothing and count nothing.
func TestBoostDisabled(t *testing.T) {
	tn := NewTuner(Config{TargetPieceSize: 16, Seed: 8}, nil)
	c := newFakeColumn("a", 1024, 1<<10, 71)
	tn.Register(c, 0, 1<<10)
	for i := 0; i < 30; i++ {
		tn.NoteQuery("a", 0, 100)
		if w := tn.MaybeBoost(c.ix, "a", 0, 100); w != 0 {
			t.Fatalf("MaybeBoost did %d work", w)
		}
	}
	if tn.Boosts() != 0 || c.ix.Pieces() != 1 || c.ix.Work() != 0 {
		t.Fatalf("boosts %d, pieces %d, work %d: want an untouched index", tn.Boosts(), c.ix.Pieces(), c.ix.Work())
	}
}

func TestSharedCollector(t *testing.T) {
	coll := stats.NewCollector()
	tn := NewTuner(Config{}, coll)
	if tn.Collector() != coll {
		t.Fatal("collector not shared")
	}
	c := newFakeColumn("a", 128, 1<<10, 81)
	tn.Register(c, 0, 1<<10)
	tn.NoteQuery("a", 0, 5)
	if coll.Queries("a") != 1 {
		t.Fatal("NoteQuery did not reach shared collector")
	}
}

func TestConcurrentStepsAndQueries(t *testing.T) {
	tn := NewTuner(Config{TargetPieceSize: 16, Seed: 9}, nil)
	cols := make([]*fakeColumn, 3)
	for i := range cols {
		cols[i] = newFakeColumn(string(rune('x'+i)), 8192, 1<<20, uint64(90+i))
		tn.Register(cols[i], 0, 1<<20)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch g % 2 {
				case 0:
					tn.TryStep(nil)
				case 1:
					tn.NoteQuery(cols[i%3].name, int64(i*10), int64(i*10+100))
				}
			}
		}(g)
	}
	wg.Wait()
	for _, c := range cols {
		if err := c.ix.Validate(); err != nil {
			t.Fatalf("column %s corrupted under concurrency: %v", c.name, err)
		}
	}
	// Every Step either ran an action or yielded because the only columns
	// queried so far were claimed by the other stepper; none is lost.
	if got := tn.Actions() + tn.Contended(); got != 100 {
		t.Fatalf("actions %d + contended %d, want 100 steps accounted for", tn.Actions(), tn.Contended())
	}
}

func TestSeedWorkloadUnregisteredColumnIgnored(t *testing.T) {
	tn := NewTuner(Config{TargetPieceSize: 16, Seed: 11}, nil)
	c := newFakeColumn("real", 2048, 1<<16, 92)
	tn.Register(c, 0, 1<<16)
	// Seeding a ghost column must not panic or skew anything.
	tn.SeedWorkload("ghost", 0, 100, 50)
	if f := tn.Collector().Frequency("ghost"); f != 0 {
		t.Fatalf("ghost frequency %f", f)
	}
	// The real column still gets all the idle work.
	actions, _ := tn.RunActions(10)
	if actions != 10 {
		t.Fatalf("actions %d", actions)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() (int64, int) {
		tn := NewTuner(Config{TargetPieceSize: 64, Seed: 42}, nil)
		c := newFakeColumn("a", 4096, 1<<16, 7)
		tn.Register(c, 0, 1<<16)
		tn.RunActions(100)
		return tn.Work(), c.pieces()
	}
	w1, p1 := run()
	w2, p2 := run()
	if w1 != w2 || p1 != p2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", w1, p1, w2, p2)
	}
}

// A weight-100 hint is one weighted sketch update, not 100 locked decays.
func BenchmarkSeedWorkload(b *testing.B) {
	tn := NewTuner(Config{}, nil)
	tn.Register(newFakeColumn("a", 128, 1<<20, 7), 0, 1<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64(i%1000) * 1000
		tn.SeedWorkload("a", lo, lo+1<<12, 100)
	}
}
