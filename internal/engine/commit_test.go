package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestInsertBatchAtomicToSelects: an insert batch is visible whole or not
// at all. Two writers insert batches of eight equal rows, a value no other
// row holds, while two readers count that value; every count must be a
// multiple of eight, on every strategy and shard count, with the idle pool
// merging between statements. A select reads every part at one watermark,
// so a batch whose rows span parts never shows in some parts only.
func TestInsertBatchAtomicToSelects(t *testing.T) {
	const (
		writers, batches, batch = 2, 3000, 8
		readers                 = 2
		v                       = int64(5000)
	)
	base := make([]int64, 4096)
	for i := range base {
		base[i] = int64(i % 1000)
	}
	rows := make([][]int64, batch)
	for i := range rows {
		rows[i] = []int64{v}
	}
	for _, s := range Strategies() {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", s, shards), func(t *testing.T) {
				e := newEngineWithData(t, Config{Strategy: s, Seed: 5, Shards: shards, AutoIdle: true}, base)
				defer e.Close()
				tab, err := e.Table("R")
				if err != nil {
					t.Fatal(err)
				}
				var writing sync.WaitGroup
				for w := 0; w < writers; w++ {
					writing.Add(1)
					go func() {
						defer writing.Done()
						for b := 0; b < batches; b++ {
							if _, err := tab.InsertRows(rows); err != nil {
								t.Error(err)
								return
							}
						}
					}()
				}
				var done atomic.Bool
				var reads, torn atomic.Int64
				var reading sync.WaitGroup
				for r := 0; r < readers; r++ {
					reading.Add(1)
					go func() {
						defer reading.Done()
						for !done.Load() {
							res, err := e.Select("R", "A", v, v+1)
							if err != nil {
								t.Error(err)
								return
							}
							reads.Add(1)
							if res.Count%batch != 0 {
								torn.Add(1)
							}
						}
					}()
				}
				writing.Wait()
				done.Store(true)
				reading.Wait()
				if torn.Load() != 0 {
					t.Fatalf("%d of %d reads saw part of a batch", torn.Load(), reads.Load())
				}
				if res, err := e.Select("R", "A", v, v+1); err != nil || res.Count != writers*batches*batch {
					t.Fatalf("final count %d (%v), want %d", res.Count, err, writers*batches*batch)
				}
			})
		}
	}
}

// failingLog is a WriteLog whose durability wait for one record — the
// insert numbered failAt — parks until release is closed and then fails;
// every other record is durable at once.
type failingLog struct {
	WriteLog
	appended         atomic.Int64
	failAt           int64
	entered, release chan struct{}
}

func (l *failingLog) LogInsert(string, uint32, [][]int64) (int64, error) {
	return l.appended.Add(1), nil
}

func (l *failingLog) WaitDurable(end int64) error {
	if end != l.failAt {
		return nil
	}
	close(l.entered)
	<-l.release
	return fmt.Errorf("%w: injected fsync failure", ErrReadOnly)
}

// TestFailedDurabilityWaitAnnihilatesBatch: an insert batch whose log
// record never became durable is annihilated in the ingest queues before it
// is published, so no select ever counts it, and the batch behind it in
// ticket order publishes and drains past its row ids.
func TestFailedDurabilityWaitAnnihilatesBatch(t *testing.T) {
	const ok, doomed, after = int64(70001), int64(70002), int64(70003)
	for _, tc := range []struct {
		s      Strategy
		shards int
	}{{StrategyScan, 1}, {StrategyHolistic, 3}} {
		t.Run(fmt.Sprintf("%s/shards=%d", tc.s, tc.shards), func(t *testing.T) {
			e := newEngineWithData(t, Config{Strategy: tc.s, Seed: 9, Shards: tc.shards}, randomValsN(3000))
			defer e.Close()
			wl := &failingLog{failAt: 2, entered: make(chan struct{}), release: make(chan struct{})}
			e.SetWriteLog(wl)
			tab, err := e.Table("R")
			if err != nil {
				t.Fatal(err)
			}
			count := func(v int64) int {
				t.Helper()
				res, err := e.Select("R", "A", v, v+1)
				if err != nil {
					t.Fatal(err)
				}
				return res.Count
			}
			batchOf := func(v int64) [][]int64 { return [][]int64{{v}, {v}, {v}, {v}} }
			if _, err := tab.InsertRows(batchOf(ok)); err != nil {
				t.Fatal(err)
			}
			failed := make(chan error, 1)
			go func() {
				_, err := tab.InsertRows(batchOf(doomed))
				failed <- err
			}()
			<-wl.entered
			behind := make(chan error, 1)
			go func() {
				_, err := tab.InsertRows(batchOf(after))
				behind <- err
			}()
			// The doomed batch is enqueued but unpublished; the one behind it
			// waits for it, durable or not.
			for i := 0; i < 50; i++ {
				if n := count(doomed) + count(after); n != 0 {
					t.Fatalf("%d rows of unpublished batches visible", n)
				}
				tab.MergePending()
			}
			close(wl.release)
			if err := <-failed; !errors.Is(err, ErrReadOnly) {
				t.Fatalf("insert whose wait failed: %v, want ErrReadOnly", err)
			}
			if err := <-behind; err != nil {
				t.Fatal(err)
			}
			if a, d, b := count(ok), count(doomed), count(after); a != 4 || d != 0 || b != 4 {
				t.Fatalf("counts %d/%d/%d, want 4/0/4", a, d, b)
			}
			if got := tab.Rows(); got != 3000+8 {
				t.Fatalf("Rows() = %d, want %d", got, 3000+8)
			}
			tab.MergePending()
			if n := tab.PendingOps(); n != 0 {
				t.Fatalf("%d ops still buffered after the drain", n)
			}
			if a, d, b := count(ok), count(doomed), count(after); a != 4 || d != 0 || b != 4 {
				t.Fatalf("merged counts %d/%d/%d, want 4/0/4", a, d, b)
			}
			sc, err := e.column("R", "A")
			if err != nil {
				t.Fatal(err)
			}
			if err := sc.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// randomValsN is n values below 1000, none of them a test's probe value.
func randomValsN(n int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i*7919) % 1000
	}
	return vals
}
