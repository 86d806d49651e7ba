package updates

import (
	"sync"
	"testing"
)

func TestQueueDrainContiguity(t *testing.T) {
	var q Queue
	// Rows 0,1,3 enqueue; row 2 is in flight (gap).
	q.Insert(10, 0)
	q.Insert(11, 1)
	q.Insert(13, 3)
	ins, del := q.Drain(0, 1, 0, AllRows)
	if len(del) != 0 {
		t.Fatalf("drained %d deletes from an insert-only queue", len(del))
	}
	if len(ins) != 2 || ins[0].Row != 0 || ins[1].Row != 1 {
		t.Fatalf("drain past the row gap: %v", ins)
	}
	if q.Len() != 1 {
		t.Fatalf("queue length %d after partial drain, want 1", q.Len())
	}
	// The gap closes; the drain resumes.
	q.Insert(12, 2)
	ins, _ = q.Drain(2, 1, 0, AllRows)
	if len(ins) != 2 || ins[0].Row != 2 || ins[1].Row != 3 {
		t.Fatalf("drain after gap closed: %v", ins)
	}
	if q.Len() != 0 {
		t.Fatal("queue not empty after full drain")
	}
}

func TestQueueDrainStride(t *testing.T) {
	var q Queue
	// A 3-striped part with id 1 owns global rows 1, 4, 7, ...
	q.Insert(21, 7)
	q.Insert(19, 4)
	q.Insert(17, 1)
	ins, _ := q.Drain(1, 3, 0, AllRows)
	if len(ins) != 3 || ins[0].Row != 1 || ins[1].Row != 4 || ins[2].Row != 7 {
		t.Fatalf("strided drain: %v", ins)
	}
}

func TestQueueDrainBudget(t *testing.T) {
	var q Queue
	// Rows 0..9 are merged; buffered inserts target rows 10..19.
	for i := 0; i < 10; i++ {
		q.Insert(int64(i), uint32(10+i))
	}
	q.Delete(100, 5) // a buffered delete for merged row 5
	ins, del := q.Drain(10, 1, 4, AllRows)
	if len(ins)+len(del) != 4 {
		t.Fatalf("budgeted drain returned %d ops, want 4", len(ins)+len(del))
	}
	if len(del) != 1 {
		t.Fatalf("merged-row deletes drain first: got %d", len(del))
	}
	if q.Len() != 7 {
		t.Fatalf("queue length %d after budgeted drain, want 7", q.Len())
	}
}

// TestQueueDrainReleasesBuffers: a drain that empties a buffer releases it,
// so a fully drained queue holds no capacity, whatever burst it took; a
// partial drain keeps what is still buffered, and the queue refills after a
// release.
func TestQueueDrainReleasesBuffers(t *testing.T) {
	var q Queue
	const burst = 4096
	for i := range burst {
		q.Insert(int64(i), uint32(burst+i))
		if i%3 == 0 {
			q.Delete(int64(i), uint32(i)) // rows below burst are merged
		}
	}
	ins, _ := q.Drain(burst, 1, burst/2, AllRows)
	if cap(q.ins) == 0 || q.Len() == 0 {
		t.Fatalf("a partial drain left %d ops in %d slots of inserts", q.Len(), cap(q.ins))
	}
	if ins, _ := q.Drain(uint32(burst+len(ins)), 1, 0, AllRows); q.Len() != 0 || len(ins) == 0 {
		t.Fatalf("a full drain left %d ops", q.Len())
	}
	if cap(q.ins) != 0 || cap(q.del) != 0 || q.dels != nil {
		t.Fatalf("a drained queue holds capacity: ins %d, del %d, delete set %v", cap(q.ins), cap(q.del), q.dels != nil)
	}
	q.Insert(7, 2*burst)
	q.Delete(3, 3)
	if ins, del := q.Counts(); ins != 1 || del != 1 {
		t.Fatalf("after a release the queue buffers %d inserts and %d deletes, want 1 and 1", ins, del)
	}
}

func TestQueueNetCountSum(t *testing.T) {
	var q Queue
	q.Insert(5, 0)
	q.Insert(7, 1)
	q.Delete(6, 42) // row 42 lives in the merged structures
	c, s := q.CountSum(0, 10, AllRows)
	if c != 1 || s != 6 {
		t.Fatalf("net count/sum %d/%d, want 1/6", c, s)
	}
	c, s = q.CountSum(7, 10, AllRows)
	if c != 1 || s != 7 {
		t.Fatalf("net count/sum on [7,10) %d/%d, want 1/7", c, s)
	}
}

func TestQueueDeleteDedup(t *testing.T) {
	var q Queue
	if !q.Delete(5, 1) {
		t.Fatal("first delete reported no effect")
	}
	if q.Delete(5, 1) {
		t.Fatal("duplicate delete reported effect")
	}
	if _, del := q.Counts(); del != 1 {
		t.Fatalf("buffered deletes %d, want 1", del)
	}
}

func TestQueueAnnihilateRow(t *testing.T) {
	var q Queue
	q.Insert(9, 3)
	v, ok := q.AnnihilateRow(3)
	if !ok || v != 9 {
		t.Fatalf("AnnihilateRow = %d,%v", v, ok)
	}
	if _, ok := q.AnnihilateRow(3); ok {
		t.Fatal("second annihilation of the same row hit")
	}
	// The dead pair nets to zero in reads but stays buffered: the insert
	// must still materialise (then tombstone) to keep row order dense.
	if c, s := q.CountSum(0, 100, AllRows); c != 0 || s != 0 {
		t.Fatalf("dead pair leaked into reads: %d/%d", c, s)
	}
	ins, del := q.Drain(3, 1, 0, AllRows)
	if len(ins) != 1 || ins[0] != (Entry{9, 3}) {
		t.Fatalf("dead pair's insert did not drain: %v", ins)
	}
	if len(del) != 0 {
		t.Fatalf("paired delete drained before its row merged: %v", del)
	}
	ins, del = q.Drain(4, 1, 0, AllRows)
	if len(del) != 1 || del[0] != (Entry{9, 3}) || len(ins) != 0 {
		t.Fatalf("paired delete did not follow: ins=%v del=%v", ins, del)
	}
	if q.Len() != 0 {
		t.Fatal("queue not empty after the pair drained")
	}
}

// TestQueueOutOfOrderArrivals: inserts whose rows arrive out of order, as
// when a later statement's writer enqueues first, are found by row, resolve
// to the lowest live row below the visibility bound holding a value, and
// drain in row order up to the first gap.
func TestQueueOutOfOrderArrivals(t *testing.T) {
	var q Queue
	q.Insert(10, 5)
	q.Insert(20, 2)
	q.Insert(10, 3)
	if r, ok := q.MinInsertRowFor(10, AllRows); !ok || r != 3 {
		t.Fatalf("MinInsertRowFor(10) = %d,%v; want 3", r, ok)
	}
	if v, ok := q.AnnihilateRow(2); !ok || v != 20 {
		t.Fatalf("AnnihilateRow(2) = %d,%v; want 20", v, ok)
	}
	q.Insert(10, 1)
	for _, c := range []struct {
		below int64
		row   uint32
		ok    bool
	}{{AllRows, 1, true}, {2, 1, true}, {1, 0, false}} {
		if r, ok := q.MinInsertRowFor(10, c.below); ok != c.ok || r != c.row {
			t.Fatalf("MinInsertRowFor(10, %d) = %d,%v; want %d,%v", c.below, r, ok, c.row, c.ok)
		}
	}
	if v, ok := q.AnnihilateRow(1); !ok || v != 10 {
		t.Fatalf("AnnihilateRow(1) = %d,%v; want 10", v, ok)
	}
	if _, ok := q.AnnihilateRow(4); ok {
		t.Fatal("AnnihilateRow hit row 4, which was never inserted")
	}
	if r, ok := q.MinInsertRowFor(10, AllRows); !ok || r != 3 {
		t.Fatalf("MinInsertRowFor(10) after killing row 1 = %d,%v; want 3", r, ok)
	}
	ins, _ := q.Drain(1, 1, 0, AllRows)
	if len(ins) != 3 || ins[0].Row != 1 || ins[1].Row != 2 || ins[2].Row != 3 {
		t.Fatalf("drain up to the gap at row 4: %v", ins)
	}
}

// TestQueueConcurrentWriters hammers one queue from many goroutines and
// checks nothing is lost: every writer's (count, sum) contribution must be
// visible in the drained + buffered total. Run under -race this is also the
// data-race proof for the ingest path.
func TestQueueConcurrentWriters(t *testing.T) {
	var q Queue
	const writers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				row := uint32(w*per + i)
				q.Insert(int64(row), row)
			}
		}(w)
	}
	wg.Wait()
	c, s := q.CountSum(0, int64(writers*per), AllRows)
	wantC := writers * per
	wantS := int64(wantC) * int64(wantC-1) / 2
	if c != wantC || s != wantS {
		t.Fatalf("after concurrent inserts: %d/%d, want %d/%d", c, s, wantC, wantS)
	}
	ins, _ := q.Drain(0, 1, 0, AllRows)
	if len(ins) != wantC {
		t.Fatalf("drained %d inserts, want %d", len(ins), wantC)
	}
	for i, e := range ins {
		if int(e.Row) != i {
			t.Fatalf("drain order broken at %d: row %d", i, e.Row)
		}
	}
}
