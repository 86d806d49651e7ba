package updates_test

import (
	"testing"

	"holistic/internal/core"
	"holistic/internal/updates"
)

// BenchmarkQueueDrain fills a part's queue with one burst — 4 096 inserts
// for the rows after 4 096 merged ones, every 512th pair arriving swapped
// (a later statement's writer enqueuing first), 64 deletes of merged rows
// and 8 deletes of still-buffered inserts — and drains it in merge-step
// quanta (core.DefaultMergeQuantum) until it is empty. The queue lives
// across iterations, as a part's does across bursts.
func BenchmarkQueueDrain(b *testing.B) {
	const merged, burst = 4096, 4096
	var q updates.Queue
	b.ReportAllocs()
	for b.Loop() {
		for i := range burst {
			r := merged + i
			if i%512 == 0 {
				r++
			} else if i%512 == 1 {
				r--
			}
			q.Insert(int64(r*7919%burst), uint32(r))
		}
		for i := range 64 {
			q.Delete(int64(i), uint32(i*61))
		}
		for i := range 8 {
			q.AnnihilateRow(uint32(merged + i*509))
		}
		next := uint32(merged)
		for q.Len() > 0 {
			ins, del := q.Drain(next, 1, core.DefaultMergeQuantum, updates.AllRows)
			if len(ins)+len(del) == 0 {
				b.Fatalf("drain stalled with %d ops buffered", q.Len())
			}
			next += uint32(len(ins))
		}
	}
}
