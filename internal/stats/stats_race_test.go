package stats

import (
	"sync"
	"testing"
)

// TestConcurrentCollector hammers the collector from multiple goroutines;
// run with -race, one writer and two Frequency readers per column.
// Frequencies must stay normalised throughout.
func TestConcurrentCollector(t *testing.T) {
	c := NewCollector()
	cols := []string{"a", "b"}
	for _, col := range cols {
		c.Register(col)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			col := cols[g/3] // one writer and two readers per column
			for i := 0; i < 500; i++ {
				if g%3 == 0 {
					c.RecordQuery(col)
					continue
				}
				if f := c.Frequency(col); f < 0 || f > 1.0000001 {
					t.Errorf("frequency out of range: %f", f)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	sum := 0.0
	for _, col := range cols {
		sum += c.Frequency(col)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("frequencies sum to %f", sum)
	}
}
