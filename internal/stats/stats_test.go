package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestUnregisteredColumn(t *testing.T) {
	c := NewCollector()
	c.RecordQuery("ghost") // must not panic
	if c.Queries("ghost") != 0 {
		t.Fatal("unregistered column accumulated queries")
	}
	if c.Frequency("ghost") != 0 {
		t.Fatal("unregistered column has frequency")
	}
	if _, ok := c.cols["ghost"]; ok {
		t.Fatal("ghost registered")
	}
}

func TestQueryCounting(t *testing.T) {
	c := NewCollector()
	c.Register("a")
	c.Register("b")
	for i := 0; i < 30; i++ {
		c.RecordQuery("a")
	}
	for i := 0; i < 10; i++ {
		c.RecordQuery("b")
	}
	if c.Queries("a") != 30 || c.Queries("b") != 10 {
		t.Fatalf("counts %d/%d", c.Queries("a"), c.Queries("b"))
	}
	if c.seq != 40 {
		t.Fatalf("seq %d", c.seq)
	}
	fa, fb := c.Frequency("a"), c.Frequency("b")
	if fa <= fb {
		t.Fatalf("frequency ordering wrong: %f vs %f", fa, fb)
	}
	if math.Abs(fa+fb-1) > 1e-9 {
		t.Fatalf("frequencies do not sum to 1: %f", fa+fb)
	}
}

func TestNoKnowledgePrior(t *testing.T) {
	c := NewCollector()
	c.Register("a")
	c.Register("b")
	c.Register("c")
	// With zero queries, every column gets an equal share: the tuner's
	// round-robin prior for the paper's "No Knowledge" case.
	for _, col := range []string{"a", "b", "c"} {
		if f := c.Frequency(col); math.Abs(f-1.0/3) > 1e-9 {
			t.Fatalf("prior frequency of %s = %f", col, f)
		}
	}
}

func TestDecayShiftsFrequency(t *testing.T) {
	c := NewCollector()
	c.Register("old")
	c.Register("new")
	for i := 0; i < 50; i++ {
		c.RecordQuery("old")
	}
	for i := 0; i < 50; i++ {
		c.RecordQuery("new")
	}
	// The recent burst on "new" must dominate the equally sized old burst.
	if c.Frequency("new") <= c.Frequency("old") {
		t.Fatalf("decay failed: new=%f old=%f", c.Frequency("new"), c.Frequency("old"))
	}
}

func TestRegisterResets(t *testing.T) {
	c := NewCollector()
	c.Register("a")
	c.RecordQuery("a")
	c.Register("a") // reset
	if c.Queries("a") != 0 {
		t.Fatal("re-registration kept old counts")
	}
	if _, ok := c.cols["a"]; !ok {
		t.Fatal("column lost")
	}
}

// TestPropertyFrequenciesSumToOne: for any mix of queries over registered
// columns, frequencies always sum to ~1.
func TestPropertyFrequenciesSumToOne(t *testing.T) {
	f := func(hits []uint8) bool {
		c := NewCollector()
		names := []string{"a", "b", "c", "d"}
		for _, n := range names {
			c.Register(n)
		}
		for _, h := range hits {
			c.RecordQuery(names[int(h)%len(names)])
		}
		sum := 0.0
		for _, n := range names {
			f := c.Frequency(n)
			if f < 0 || f > 1 {
				return false
			}
			sum += f
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRecordQuery(b *testing.B) {
	c := NewCollector()
	c.Register("a")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.RecordQuery("a")
	}
}
