package stats

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestRangeHelpers(t *testing.T) {
	r := Range{10, 20}
	if !r.Contains(10) || r.Contains(20) || r.Contains(9) {
		t.Fatal("Contains wrong at boundaries")
	}
	if !r.Overlaps(Range{19, 25}) || r.Overlaps(Range{20, 25}) || r.Overlaps(Range{0, 10}) {
		t.Fatal("Overlaps wrong at boundaries")
	}
	if r.String() != "[10,20)" {
		t.Fatalf("String = %q", r.String())
	}
}

func TestUnregisteredColumn(t *testing.T) {
	c := NewCollector()
	c.RecordQuery("ghost", 0, 10) // must not panic
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
	c.Register("a", 0, 1000)
	c.Register("b", 0, 1000)
	for i := 0; i < 30; i++ {
		c.RecordQuery("a", 10, 20)
	}
	for i := 0; i < 10; i++ {
		c.RecordQuery("b", 10, 20)
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
	c.Register("a", 0, 100)
	c.Register("b", 0, 100)
	c.Register("c", 0, 100)
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
	c.Register("old", 0, 100)
	c.Register("new", 0, 100)
	for i := 0; i < 50; i++ {
		c.RecordQuery("old", 0, 10)
	}
	for i := 0; i < 50; i++ {
		c.RecordQuery("new", 0, 10)
	}
	// The recent burst on "new" must dominate the equally sized old burst.
	if c.Frequency("new") <= c.Frequency("old") {
		t.Fatalf("decay failed: new=%f old=%f", c.Frequency("new"), c.Frequency("old"))
	}
}

// A query entirely outside the domain carries no location information: it
// raises the column's query count and frequency, adds no bucket mass and
// does not advance the drift epoch. Neither does a degenerate predicate.
func TestDomainEdgeQueries(t *testing.T) {
	c := newDrift(4)
	c.Register("a", -100, 100)
	c.Register("b", -100, 100)
	c.RecordQuery("b", 0, 10)
	before := c.Frequency("a")
	for i := 0; i < 10; i++ {
		c.RecordQuery("a", -1000, -150)
		c.RecordQuery("a", 100, 1000)
		c.RecordQuery("a", 50, 50)
	}
	if c.Queries("a") != 30 {
		t.Fatalf("queries %d", c.Queries("a"))
	}
	if after := c.Frequency("a"); after <= before {
		t.Fatalf("frequency %g did not rise above %g", after, before)
	}
	if cur := c.cols["a"].cur; cur != ([Buckets]float64{}) {
		t.Fatalf("out-of-domain queries added bucket mass %v", cur)
	}
	if e := c.Epochs("a"); e != 0 {
		t.Fatalf("out-of-domain queries closed %d epochs, want 0", e)
	}
}

func TestRegisterResets(t *testing.T) {
	c := NewCollector()
	c.Register("a", 0, 100)
	c.RecordQuery("a", 0, 10)
	c.Register("a", 0, 200) // reset with new domain
	if c.Queries("a") != 0 {
		t.Fatal("re-registration kept old counts")
	}
	if _, ok := c.cols["a"]; !ok {
		t.Fatal("column lost")
	}
}

func TestSingleValueDomain(t *testing.T) {
	c := NewCollector()
	c.Register("a", 5, 5) // degenerate domain widened internally
	c.RecordQuery("a", 5, 6)
	if c.Queries("a") != 1 {
		t.Fatal("degenerate domain broke recording")
	}
}

// TestPropertyFrequenciesSumToOne: for any mix of queries over registered
// columns, frequencies always sum to ~1.
func TestPropertyFrequenciesSumToOne(t *testing.T) {
	f := func(hits []uint8) bool {
		c := NewCollector()
		names := []string{"a", "b", "c", "d"}
		for _, n := range names {
			c.Register(n, 0, 1000)
		}
		for i, h := range hits {
			c.RecordQuery(names[int(h)%len(names)], int64(i%900), int64(i%900)+10)
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
	for _, c := range []*Collector{NewCollector(), newDrift(0)} {
		b.Run(fmt.Sprintf("drift=%v", c.epoch > 0), func(b *testing.B) {
			c.Register("a", 0, 1<<30)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := int64(i%(1<<20)) * 1000
				c.RecordQuery("a", lo, lo+1<<20)
			}
		})
	}
}
