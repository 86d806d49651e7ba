// Package monitor_test checks the online strategy's COLT-style monitoring
// from outside the engine: every epoch of selects is reviewed once, a hot
// column whose load pays for a full index gets one when its epoch closes, an
// indexed column is not indexed again, and an index unread for
// dropAfterEpochs reviews is dropped. The review itself lives in package
// engine; these tests drive it only through the public API and read the
// design back through DescribePhysicalDesign.
package monitor_test

import (
	"math/rand/v2"
	"testing"

	"holistic/internal/engine"
)

const (
	// epoch is the number of selects between the online reviews.
	epoch = 100
	// dropAfterEpochs is how many consecutive reviews must find a full
	// index unread before it is dropped.
	dropAfterEpochs = 20
	// domain bounds the column values; a select of width domain/100 has
	// about 1% selectivity.
	domain = 1 << 20
	rows   = 300_000
)

// newOnline returns an online engine holding table R with one column of
// random values per name.
func newOnline(t *testing.T, cols ...string) *engine.Engine {
	t.Helper()
	rng := rand.New(rand.NewPCG(71, 72))
	e := engine.New(engine.Config{Strategy: engine.StrategyOnline})
	t.Cleanup(e.Close)
	tab, err := e.CreateTable("R")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cols {
		vals := make([]int64, rows)
		for i := range vals {
			vals[i] = rng.Int64N(domain)
		}
		if err := tab.AddColumnFromSlice(c, vals); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// selectN sends n selects of about 1% selectivity on col.
func selectN(t *testing.T, e *engine.Engine, col string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := e.Select("R", col, 1000, 1000+domain/100); err != nil {
			t.Fatal(err)
		}
	}
}

// indexed reports which columns of R carry a full index.
func indexed(e *engine.Engine) map[string]bool {
	out := map[string]bool{}
	for _, d := range e.DescribePhysicalDesign() {
		out[d.Column] = d.FullIndex
	}
	return out
}

func TestHotColumnGetsBuildAdvice(t *testing.T) {
	e := newOnline(t, "hot", "cold")
	selectN(t, e, "hot", epoch)
	if got := indexed(e); !got["hot"] || got["cold"] {
		t.Fatalf("after one epoch on hot: full indexes %v, want hot only", got)
	}
}

func TestAdviceOnlyAtEpochBoundary(t *testing.T) {
	e := newOnline(t, "a")
	for i := 0; i < epoch-1; i++ {
		selectN(t, e, "a", 1)
		if indexed(e)["a"] {
			t.Fatalf("index built before the epoch boundary, at select %d", i+1)
		}
	}
	selectN(t, e, "a", 1)
	if !indexed(e)["a"] {
		t.Fatal("no index built at the epoch boundary")
	}
}

// TestIndexedColumnNotReAdvised: the same load on an indexed and an
// unindexed column builds only the missing index; the existing one is kept.
func TestIndexedColumnNotReAdvised(t *testing.T) {
	e := newOnline(t, "a", "b")
	if _, err := e.BuildFullIndex("R", "a"); err != nil {
		t.Fatal(err)
	}
	selectN(t, e, "a", epoch/3)
	selectN(t, e, "b", epoch/3)
	if changed, _ := e.IdleActions(1); changed != 1 {
		t.Fatalf("review changed %d indexes, want 1 (b built, a untouched)", changed)
	}
	if got := indexed(e); !got["a"] || !got["b"] {
		t.Fatalf("full indexes %v, want both", got)
	}
}

func TestDropAfterIdleEpochs(t *testing.T) {
	e := newOnline(t, "used", "stale")
	if _, err := e.BuildFullIndex("R", "stale"); err != nil {
		t.Fatal(err)
	}
	// dropAfterEpochs epochs of selects that never touch "stale".
	for ep := 1; ep <= dropAfterEpochs; ep++ {
		selectN(t, e, "used", epoch)
		got := indexed(e)
		if !got["used"] {
			t.Fatalf("after epoch %d: the used column has no index", ep)
		}
		if got["stale"] != (ep < dropAfterEpochs) {
			t.Fatalf("after epoch %d: stale index kept %v, want it dropped at epoch %d", ep, got["stale"], dropAfterEpochs)
		}
	}
}

func TestForceReview(t *testing.T) {
	e := newOnline(t, "a")
	selectN(t, e, "a", epoch/2)
	if changed, _ := e.IdleActions(1); changed != 1 || !indexed(e)["a"] {
		t.Fatalf("forced review changed %d indexes, want 1; design %v", changed, indexed(e))
	}
	// The review consumed the epoch's counts: with the index dropped by
	// hand, a second review sees no load on a and does not rebuild it.
	if err := e.DropFullIndex("R", "a"); err != nil {
		t.Fatal(err)
	}
	if changed, _ := e.IdleActions(1); changed != 0 || indexed(e)["a"] {
		t.Fatalf("second forced review changed %d indexes, want 0; design %v", changed, indexed(e))
	}
}
