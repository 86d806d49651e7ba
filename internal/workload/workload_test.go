package workload

import (
	"testing"
	"testing/quick"
)

func TestUniformDataProperties(t *testing.T) {
	vals := UniformData(1, 10000, 1, 1000)
	if len(vals) != 10000 {
		t.Fatalf("len %d", len(vals))
	}
	for _, v := range vals {
		if v < 1 || v >= 1000 {
			t.Fatalf("value %d outside domain", v)
		}
	}
	// Deterministic per seed, different across seeds.
	again := UniformData(1, 10000, 1, 1000)
	other := UniformData(2, 10000, 1, 1000)
	same, diff := true, false
	for i := range vals {
		if vals[i] != again[i] {
			same = false
		}
		if vals[i] != other[i] {
			diff = true
		}
	}
	if !same {
		t.Fatal("not deterministic for equal seeds")
	}
	if !diff {
		t.Fatal("identical across different seeds")
	}
}

func TestUniformDataDegenerateDomain(t *testing.T) {
	vals := UniformData(3, 10, 5, 5)
	for _, v := range vals {
		if v != 5 {
			t.Fatalf("degenerate domain produced %d", v)
		}
	}
}

func TestUniformQueries(t *testing.T) {
	g := NewUniform("R", "A", 0, 100000, 0.01, 7)
	seen := map[int64]bool{}
	for i := 0; i < 500; i++ {
		q := g.Next()
		if q.Table != "R" || q.Column != "A" {
			t.Fatalf("wrong target: %+v", q)
		}
		if q.Hi-q.Lo != 1000 {
			t.Fatalf("width %d, want 1000 (1%% of 100000)", q.Hi-q.Lo)
		}
		if q.Lo < 0 || q.Hi > 101000 {
			t.Fatalf("query outside domain: %+v", q)
		}
		seen[q.Lo] = true
	}
	if len(seen) < 400 {
		t.Fatalf("positions not random: only %d distinct of 500", len(seen))
	}
}

func TestUniformMinWidth(t *testing.T) {
	g := NewUniform("R", "A", 0, 10, 0.0001, 1)
	q := g.Next()
	if q.Hi-q.Lo != 1 {
		t.Fatalf("width %d, want minimum 1", q.Hi-q.Lo)
	}
}

func TestRoundRobinCycles(t *testing.T) {
	gens := make([]Generator, 3)
	for i := range gens {
		gens[i] = NewUniform("R", string(rune('a'+i)), 0, 1000, 0.01, uint64(i))
	}
	rr := NewRoundRobin(gens...)
	for i := 0; i < 9; i++ {
		q := rr.Next()
		want := string(rune('a' + i%3))
		if q.Column != want {
			t.Fatalf("query %d on column %s, want %s", i, q.Column, want)
		}
	}
}

func TestRoundRobinEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty RoundRobin")
		}
	}()
	NewRoundRobin()
}

func TestSequentialSweepsAndWraps(t *testing.T) {
	g := NewSequential("R", "A", 0, 100, 0.1, 0) // width 10, step 10
	var los []int64
	for i := 0; i < 12; i++ {
		q := g.Next()
		los = append(los, q.Lo)
		if q.Hi > 100 {
			t.Fatalf("query past domain: %+v", q)
		}
	}
	for i := 0; i < 9; i++ {
		if los[i+1] != los[i]+10 {
			t.Fatalf("not sweeping: %v", los)
		}
	}
	if los[10] != 0 {
		t.Fatalf("no wraparound: %v", los)
	}
}

func TestHotspotSkew(t *testing.T) {
	g := NewHotspot("R", "A", 0, 100000, 0.001, 0.1, 0.9, 11)
	inHot := 0
	const n = 2000
	for i := 0; i < n; i++ {
		q := g.Next()
		if q.Lo < 10000 {
			inHot++
		}
		if q.Lo < 0 || q.Hi > 100000 {
			t.Fatalf("query outside domain: %+v", q)
		}
	}
	// ~90% + 10%*10% ≈ 91% expected in the hot zone; accept wide margins.
	if inHot < n*7/10 {
		t.Fatalf("hotspot not skewed: %d/%d in hot zone", inHot, n)
	}
}

func TestHotspotClamping(t *testing.T) {
	g := NewHotspot("R", "A", 0, 1000, 0.01, -1, 42, 1)
	q := g.Next()
	if q.Lo < 0 || q.Hi > 1000 {
		t.Fatalf("clamped hotspot out of domain: %+v", q)
	}
}

func TestPropertyQueriesAlwaysWellFormed(t *testing.T) {
	f := func(seed uint64, selRaw uint8) bool {
		sel := float64(selRaw%100+1) / 100
		gens := []Generator{
			NewUniform("R", "A", 0, 10000, sel, seed),
			NewSequential("R", "A", 0, 10000, sel, 37),
			NewHotspot("R", "A", 0, 10000, sel, 0.2, 0.8, seed),
		}
		rr := NewRoundRobin(gens...)
		for i := 0; i < 200; i++ {
			q := rr.Next()
			if q.Lo >= q.Hi {
				return false
			}
			if q.Lo < 0 || q.Hi > 10000+10000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
