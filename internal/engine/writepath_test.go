package engine

// Adversarial tests for the concurrent write path: batched ingest queues,
// merge refinement actions and reads that hold each part's shared latch
// across its index and queue. Writers racing readers on every strategy and
// shard count, checked at quiesce points against a replay of what they
// committed, are TestEngineMatchesModel's concurrent programs
// (model_test.go). Run with -race.

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"holistic/internal/loadgate"
	"holistic/internal/shard"
)

// TestMergeStepNeverStartsAfterWriteAdmitted is the engine-level rendezvous
// proof for the merge action: with a backlog the tuner wants to merge, a
// write admitted inside the idle worker's claim window must block the merge
// step (the runner's CAS token is only granted at zero admissions), and the
// backlog must drain as ranked merge actions once the write completes.
func TestMergeStepNeverStartsAfterWriteAdmitted(t *testing.T) {
	rng := rand.New(rand.NewPCG(601, 602))
	seed := randomVals(rng, 4000, 1<<16)
	e := newEngineWithData(t, Config{
		Strategy:        StrategyHolistic,
		Seed:            29,
		TargetPieceSize: 128,
		Shards:          2, // 150 inserts a part: far below the inline-merge cap
	}, seed)
	defer e.Close()
	tab, err := e.Table("R")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := tab.InsertRow(int64(1<<16 + i)); err != nil {
			t.Fatal(err)
		}
	}
	backlog := tab.PendingOps()
	if backlog != 300 {
		t.Fatalf("backlog %d, want 300 (inline merge fired below the cap?)", backlog)
	}

	// Rendezvous: the write is admitted between the worker's idle check and
	// its token grant — the exact window the old re-check code raced.
	e.runner.SetClaimHook(e.runner.Gate().Hold)
	if ran := e.runner.RunActions(1); ran != 0 {
		t.Fatalf("%d refinement actions ran against an admitted write", ran)
	}
	if m, ops := e.tuner.Merges(), e.tuner.MergedOps(); m != 0 || ops != 0 {
		t.Fatalf("merge ran against an admitted write: %d merges / %d ops", m, ops)
	}
	if got := tab.PendingOps(); got != backlog {
		t.Fatalf("backlog moved from %d to %d while a write was admitted", backlog, got)
	}
	e.runner.SetClaimHook(nil)
	e.runner.Gate().Release()

	// The write completed: idle actions now drain the backlog as ranked
	// merge actions (the column was never queried — frequency is zero — so
	// only the merge score can rank it).
	for i := 0; i < 100 && tab.PendingOps() > 0; i++ {
		e.runner.RunActions(4)
	}
	if got := tab.PendingOps(); got != 0 {
		t.Fatalf("backlog not drained by idle merges: %d left", got)
	}
	merges, ops := e.tuner.Merges(), e.tuner.MergedOps()
	if merges == 0 || ops != int64(backlog) {
		t.Fatalf("merge harvest %d actions / %d ops, want ops = %d", merges, ops, backlog)
	}
	r, err := e.Select("R", "A", 1<<16, 1<<16+300)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count != 300 {
		t.Fatalf("inserted rows visible: %d/300", r.Count)
	}
}

// blockingLog is a WriteLog whose durability wait parks until release is
// closed; the test that uses it inserts once and calls no other method.
type blockingLog struct {
	WriteLog
	entered, release chan struct{}
}

func (l blockingLog) LogInsert(string, uint32, [][]int64) (int64, error) { return 1, nil }

func (l blockingLog) WaitDurable(int64) error {
	close(l.entered)
	<-l.release
	return nil
}

// TestInProcessWriteHoldsServerGate: with a server-style gate attached, an
// in-process write holds that gate for as long as it runs, so no idle step
// starts, yet it is not counted as a request arrival; its release closes
// exactly one traffic gap.
func TestInProcessWriteHoldsServerGate(t *testing.T) {
	e := newEngineWithData(t, Config{Strategy: StrategyHolistic, Seed: 47}, randomVals(rand.New(rand.NewPCG(47, 48)), 1000, 1<<16))
	defer e.Close()
	g := loadgate.New()
	e.SetLoadGate(g)
	wl := blockingLog{entered: make(chan struct{}), release: make(chan struct{})}
	e.SetWriteLog(wl)
	tab, err := e.Table("R")
	if err != nil {
		t.Fatal(err)
	}
	before := g.Snapshot()
	done := make(chan error, 1)
	go func() {
		_, err := tab.InsertRows([][]int64{{1 << 17}})
		done <- err
	}()
	<-wl.entered
	inFlight, ran, arrivals := g.InFlight(), e.runner.RunActions(1), g.Snapshot().Arrivals
	close(wl.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if inFlight != 1 || ran != 0 || arrivals != before.Arrivals {
		t.Fatalf("during the write: in flight %d (want 1), %d idle actions ran (want 0), arrivals %d -> %d (want unchanged)",
			inFlight, ran, before.Arrivals, arrivals)
	}
	if after := g.Snapshot(); after.InFlight != 0 || after.Gaps != before.Gaps+1 {
		t.Fatalf("after the write: in flight %d, gaps %d -> %d, want 0 and one more gap", after.InFlight, before.Gaps, after.Gaps)
	}
	// The queued row is merge work: the zero above was the gate's veto.
	if ran := e.runner.RunActions(1); ran != 1 {
		t.Fatalf("%d idle actions ran after the write, want 1", ran)
	}
}

// TestIngestCapForcesInlineMerge: without an idle pool (scan strategy), the
// cap is the only thing bounding queue growth — the writer that crosses it
// must pay an inline merge, and reads stay exact throughout.
func TestIngestCapForcesInlineMerge(t *testing.T) {
	rng := rand.New(rand.NewPCG(701, 702))
	seed := randomVals(rng, 2000, 1<<16)
	e := newEngineWithData(t, Config{Strategy: StrategyScan, Shards: 2}, seed)
	defer e.Close()
	tab, err := e.Table("R")
	if err != nil {
		t.Fatal(err)
	}
	// Each of the two parts takes the cap plus 250 more: every part merges
	// once, and the 250 past the cap stay buffered.
	const inserts = 2 * (shard.DefaultIngestCap + 250)
	var wantSum int64
	for i := 0; i < inserts; i++ {
		v := int64(1<<16 + i)
		wantSum += v
		if _, err := tab.InsertRow(v); err != nil {
			t.Fatal(err)
		}
	}
	if got := tab.PendingOps(); got != 2*250 {
		t.Fatalf("%d ops still buffered, want 500: the cap did not force one merge a part", got)
	}
	r, err := e.Select("R", "A", 1<<16, 1<<16+inserts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count != inserts || r.Sum != wantSum {
		t.Fatalf("got %d/%d want %d/%d", r.Count, r.Sum, inserts, wantSum)
	}
}

// TestFailedInsertBatchInsertsNothing: a batch is atomic, so a batch whose
// last row has the wrong width fails whole — no row of it is visible, and no
// row id is burned for the next insert.
func TestFailedInsertBatchInsertsNothing(t *testing.T) {
	for _, s := range Strategies() {
		t.Run(s.String(), func(t *testing.T) {
			e := newEngineWithData(t, Config{Strategy: s, Shards: 2}, []int64{1, 2, 3})
			defer e.Close()
			tab, err := e.Table("R")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tab.InsertRows([][]int64{{10}, {11}, {12, 13}}); !errors.Is(err, ErrLengthMismatch) {
				t.Fatalf("mixed-width batch: err = %v, want ErrLengthMismatch", err)
			}
			if got := tab.Rows(); got != 3 {
				t.Fatalf("Rows() = %d after the failed batch, want 3", got)
			}
			if r, err := e.Select("R", "A", -100, 100); err != nil || r.Count != 3 || r.Sum != 6 {
				t.Fatalf("full select after the failed batch = %d/%d (%v), want 3/6", r.Count, r.Sum, err)
			}
			if row, err := tab.InsertRow(20); err != nil || row != 3 {
				t.Fatalf("next insert got row %d (%v), want row 3", row, err)
			}
		})
	}
}

// TestSelectTakesNoTableLock: a select resolves its column from the
// catalog snapshot and must finish while the table lock is held exclusively
// — which is also what a delete queued behind an fsyncing insert looks like
// to a sync.RWMutex reader. Every strategy: the online review's catalog
// walk sits on the select path too.
func TestSelectTakesNoTableLock(t *testing.T) {
	rng := rand.New(rand.NewPCG(801, 802))
	seed := randomVals(rng, 2000, 1<<16)
	for _, s := range Strategies() {
		t.Run(s.String(), func(t *testing.T) {
			e := newEngineWithData(t, Config{Strategy: s, Shards: 2}, seed)
			defer e.Close()
			tab, err := e.Table("R")
			if err != nil {
				t.Fatal(err)
			}
			wantCount, wantSum := naiveRange(seed, 100, 9000)

			tab.mu.Lock()
			defer tab.mu.Unlock()
			done := make(chan error, 1)
			go func() {
				for i := 0; i < 100; i++ { // the online review runs on the 100th
					res, err := e.Select("R", "A", 100, 9000)
					if err == nil && (res.Count != wantCount || res.Sum != wantSum) {
						err = fmt.Errorf("select under a held table lock: got %d/%d want %d/%d", res.Count, res.Sum, wantCount, wantSum)
					}
					if err != nil {
						done <- err
						return
					}
				}
				_ = tab.Columns()
				_ = e.DescribePhysicalDesign()
				done <- nil
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("select blocked on the table lock")
			}
		})
	}
}
