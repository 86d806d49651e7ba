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
	if c.IsHot("ghost", 0, 10, 1) {
		t.Fatal("unregistered column is hot")
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

func TestHotRanges(t *testing.T) {
	c := NewCollector()
	c.Register("a", 0, 6400) // buckets of width 100
	for i := 0; i < 20; i++ {
		c.RecordQuery("a", 150, 180) // bucket 1
	}
	c.RecordQuery("a", 850, 870) // bucket 8, once
	if !c.IsHot("a", 160, 170, 10) {
		t.Fatal("IsHot missed the hot bucket")
	}
	if c.IsHot("a", 850, 860, 10) {
		t.Fatal("IsHot false positive")
	}
	// Query spanning hot and cold buckets counts as hot.
	if !c.IsHot("a", 0, 6400, 10) {
		t.Fatal("spanning query should be hot")
	}
}

// A query entirely outside the domain carries no location information: it
// raises the column's query count and frequency, adds no bucket mass (so
// nothing turns hot, not even the query's own range) and does not advance
// the drift epoch. Neither does a degenerate predicate.
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
	for _, q := range []Range{{-1000, -150}, {100, 1000}, {-100, -99}, {99, 100}, {-1000, 1000}} {
		if c.IsHot("a", q.Lo, q.Hi, 1e-9) {
			t.Fatalf("%v hot after out-of-domain queries only", q)
		}
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

// TestColdBucketsReachZero: a bucket nobody queries any more decays to
// exactly zero instead of parking in the subnormals, and the buckets still
// queried are what they would have been.
func TestColdBucketsReachZero(t *testing.T) {
	c := NewCollector()
	c.Register("a", 0, 64<<10)
	c.RecordWeighted("a", 0, 1<<10, 1000) // bucket 0, then never again
	if !c.IsHot("a", 0, 1<<10, 999) {
		t.Fatal("seeded bucket is not hot")
	}
	// 0.999^n leaves the normal range after ~708k queries; go well past it in
	// strides so the test is a few thousand catch-ups, not a million.
	for i := 0; i < 4000; i++ {
		c.mu.Lock()
		c.seq += 499
		c.mu.Unlock()
		c.RecordQuery("a", 63<<10, 64<<10)
	}
	cs := c.cols["a"]
	if cs.hits[0] != 0 {
		t.Fatalf("cold bucket holds %g after 2M queries, want exactly 0", cs.hits[0])
	}
	for b := 1; b < Buckets-1; b++ {
		if cs.hits[b] != 0 {
			t.Fatalf("never-queried bucket %d holds %g", b, cs.hits[b])
		}
	}
	// The live bucket: one hit every 500 queries is the geometric series
	// 1/(1-0.999^500).
	want := 1 / (1 - math.Pow(Decay, 500))
	if got := cs.hits[Buckets-1]; math.Abs(got-want) > 1e-9 {
		t.Fatalf("live bucket holds %g, want %g", got, want)
	}
	if c.IsHot("a", 0, 1<<10, 1e-290) || !c.IsHot("a", 63<<10, 64<<10, 1) {
		t.Fatal("IsHot disagrees with the buckets")
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
	// Buckets seeded once and then left alone for 2M queries while the
	// workload stays in the top bucket: at the parent they sat in the
	// subnormals and every call paid 64 slow multiplies (~740 ns/op).
	b.Run("cold", func(b *testing.B) {
		c := NewCollector()
		c.Register("a", 0, 1<<30)
		c.RecordWeighted("a", 0, 1<<30, 1000)
		for i := 0; i < 2_000_000; i++ {
			c.RecordQuery("a", 1<<30-1<<20, 1<<30)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.RecordQuery("a", 1<<30-1<<20, 1<<30)
		}
	})
}
