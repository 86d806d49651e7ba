package column

import (
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestEmptyColumn(t *testing.T) {
	c := New("a")
	if c.Name() != "a" {
		t.Fatalf("Name = %q", c.Name())
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d", c.Len())
	}
	if _, _, ok := c.MinMax(); ok {
		t.Fatal("MinMax on empty column reported ok")
	}
}

func TestFromSliceAdopts(t *testing.T) {
	vals := []int64{3, 1, 2}
	c, err := FromSlice("x", vals)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 || c.Get(0) != 3 || c.Get(2) != 2 {
		t.Fatalf("unexpected contents: %v", c.Values())
	}
}

func TestAppendAndRowIDs(t *testing.T) {
	c := New("a")
	for i := int64(0); i < 100; i++ {
		id, err := c.Append(i * 7)
		if err != nil {
			t.Fatal(err)
		}
		if id != uint32(i) {
			t.Fatalf("row id %d, want %d", id, i)
		}
	}
	if c.Len() != 100 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.Get(42) != 42*7 {
		t.Fatalf("Get(42) = %d", c.Get(42))
	}
}

func TestMinMaxCachedThroughAppends(t *testing.T) {
	c, _ := FromSlice("a", []int64{5, -3, 9})
	lo, hi, ok := c.MinMax()
	if !ok || lo != -3 || hi != 9 {
		t.Fatalf("MinMax = %d,%d,%v", lo, hi, ok)
	}
	// After caching, appends must keep the cache correct.
	for _, v := range []int64{-10, 100, 50} {
		c.Append(v)
	}
	lo, hi, _ = c.MinMax()
	if lo != -10 || hi != 100 {
		t.Fatalf("cached MinMax stale: %d,%d", lo, hi)
	}
}

func TestClone(t *testing.T) {
	c, _ := FromSlice("a", []int64{1, 2, 3})
	d := c.Clone()
	d.Append(4)
	if c.Len() != 3 || d.Len() != 4 {
		t.Fatalf("clone not independent: %d vs %d", c.Len(), d.Len())
	}
}

func TestSnapshot(t *testing.T) {
	c, _ := FromSlice("a", []int64{9, 8, 7})
	vals, rows := c.Snapshot()
	vals[0] = 999 // must not affect the column
	if c.Get(0) != 9 {
		t.Fatal("snapshot aliases the column")
	}
	if len(rows) != 3 || rows[0] != 0 || rows[2] != 2 {
		t.Fatalf("row ids wrong: %v", rows)
	}
}

func TestFromSliceNil(t *testing.T) {
	c, err := FromSlice("a", nil)
	if err != nil {
		t.Fatalf("nil slice should be fine: %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d", c.Len())
	}
	if !errors.Is(ErrTooLarge, ErrTooLarge) {
		t.Fatal("sentinel identity broken")
	}
}

func TestPropertyAppendPreservesOrder(t *testing.T) {
	f := func(vals []int64) bool {
		c := New("p")
		for _, v := range vals {
			if _, err := c.Append(v); err != nil {
				return false
			}
		}
		if c.Len() != len(vals) {
			return false
		}
		for i, v := range vals {
			if c.Get(i) != v {
				return false
			}
		}
		// MinMax agrees with a naive scan.
		if len(vals) > 0 {
			lo, hi := vals[0], vals[0]
			for _, v := range vals {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			clo, chi, ok := c.MinMax()
			if !ok || clo != lo || chi != hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppend(b *testing.B) {
	c := New("b")
	rng := rand.New(rand.NewPCG(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Append(rng.Int64())
	}
}
