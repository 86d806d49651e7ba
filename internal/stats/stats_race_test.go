package stats

import (
	"sync"
	"testing"
)

// TestConcurrentCollector hammers the collector from multiple goroutines;
// run with -race, drift tracking on so the writers close epochs under the
// Predict / Confidence readers. Frequencies must stay normalised throughout.
func TestConcurrentCollector(t *testing.T) {
	c := newDrift(16)
	cols := []string{"a", "b", "c"}
	for _, col := range cols {
		c.Register(col, 0, 100000)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			col := cols[g/3] // one writer and two readers per column
			for i := 0; i < 500; i++ {
				switch g % 3 {
				case 0:
					c.RecordQuery(col, int64(i%90000), int64(i%90000)+1000)
				case 1:
					f := c.Frequency(col)
					if f < 0 || f > 1.0000001 {
						t.Errorf("frequency out of range: %f", f)
						return
					}
				case 2:
					c.Predict(col)
					if conf := c.Confidence(col); conf < 0 || conf > 1 {
						t.Errorf("confidence out of range: %f", conf)
						return
					}
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
