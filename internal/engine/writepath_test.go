package engine

// Adversarial tests for the concurrent write path: batched ingest queues,
// merge refinement actions and reads that hold each part's shared latch
// across its index and queue. The oracle test is the write-path analogue of
// TestShardedMixedWorkload — N writers + M readers race over every strategy
// at shard counts {1, 2, 8}, with quiesce points where (count, sum) must
// exactly match a serial replay of every committed operation. Run with
// -race.

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"holistic/internal/loadgate"
	"holistic/internal/shard"
)

// writerLedger records the operations one writer committed, for the serial
// replay oracle at quiesce points. Values are writer-unique, so a delete
// matches exactly the row its insert created.
type writerLedger struct {
	inserted []int64 // column-A values inserted (still live unless deleted)
	deleted  []int64 // column-A values deleted again
}

// TestShardedWriteReadOracle races writers (batched inserts + deletes)
// against exact-oracle readers on every strategy and shard count, then
// checks quiesced (count, sum) against a serial replay of the ledgers.
// With one shard, each writer ends its phase with shard.DefaultIngestCap more
// inserts and the readers keep reading until the writers are done, so the
// queue crosses the cap and inline merges race the readers.
//
// Domain discipline: the seeded rows live in [0, domain) and are never
// touched, so readers can assert exact answers mid-flight — any lost,
// duplicated or torn row in the combine would surface immediately. Writers
// insert writer-unique values above the domain and delete only their own,
// so the replay oracle is exact at every quiesce point. A second column B =
// A + bOff rides along to prove rows stay atomic across columns: both
// columns must always agree on the live row set.
func TestShardedWriteReadOracle(t *testing.T) {
	const (
		domain = int64(1 << 16)
		bOff   = int64(7)
	)
	n, writers, readers, phases, inserts, queries := 10000, 3, 2, 2, 60, 25
	if testing.Short() {
		n, inserts, queries = 4000, 30, 12
	}
	rng := rand.New(rand.NewPCG(501, 502))
	seedA := randomVals(rng, n, domain)
	seedB := make([]int64, n)
	var seedSumA, seedSumB int64
	for i, v := range seedA {
		seedB[i] = v + bOff
		seedSumA += v
		seedSumB += seedB[i]
	}

	for _, shards := range []int{1, 2, 8} {
		for _, tc := range strategiesUnderTest {
			t.Run(tc.name+"/shards="+strconv.Itoa(shards), func(t *testing.T) {
				cfg := Config{
					Strategy:        tc.s,
					Seed:            23,
					TargetPieceSize: 128,
					Shards:          shards,
				}
				if tc.s == StrategyHolistic {
					cfg.AutoIdle = true
					cfg.IdleWorkers = 2
				}
				e := New(cfg)
				defer e.Close()
				tab, err := e.CreateTable("R")
				if err != nil {
					t.Fatal(err)
				}
				if err := tab.AddColumnFromSlice("A", append([]int64{}, seedA...)); err != nil {
					t.Fatal(err)
				}
				if err := tab.AddColumnFromSlice("B", append([]int64{}, seedB...)); err != nil {
					t.Fatal(err)
				}
				if tc.s == StrategyOffline {
					if _, err := e.BuildFullIndex("R", "A"); err != nil {
						t.Fatal(err)
					}
					if _, err := e.BuildFullIndex("R", "B"); err != nil {
						t.Fatal(err)
					}
				}

				ledgers := make([]writerLedger, writers)
				var seq [8]int64 // per-writer unique-value counters

				for phase := 0; phase < phases; phase++ {
					opsBefore := 0
					for w := range ledgers {
						opsBefore += len(ledgers[w].inserted) + len(ledgers[w].deleted)
					}
					var wg, writing sync.WaitGroup
					var writersDone atomic.Bool
					errCh := make(chan error, writers+readers)

					for w := 0; w < writers; w++ {
						wg.Add(1)
						writing.Add(1)
						go func(w int) {
							defer wg.Done()
							defer writing.Done()
							wrng := rand.New(rand.NewPCG(uint64(w)+90, uint64(phase)))
							// Writer values start at 2*domain: reader ranges top out
							// below domain + domain/32 (+bOff), so mid-flight oracle
							// reads can never see writer rows.
							vbase := 2*domain + int64(w)<<32
							for i := 0; i < inserts; i++ {
								v := vbase + seq[w]
								seq[w]++
								if i%2 == 0 { // batched form: 2 rows per call
									v2 := vbase + seq[w]
									seq[w]++
									if _, err := tab.InsertRows([][]int64{
										{v, v + bOff}, {v2, v2 + bOff},
									}); err != nil {
										errCh <- err
										return
									}
									ledgers[w].inserted = append(ledgers[w].inserted, v, v2)
								} else {
									if _, err := tab.InsertRow(v, v+bOff); err != nil {
										errCh <- err
										return
									}
									ledgers[w].inserted = append(ledgers[w].inserted, v)
								}
								// Periodically delete one of this writer's own
								// still-live rows (unique values: exact match).
								if i%3 == 2 {
									live := len(ledgers[w].inserted) - len(ledgers[w].deleted)
									if live > 0 {
										pick := ledgers[w].inserted[len(ledgers[w].deleted)+wrng.IntN(live)]
										ok, err := tab.DeleteWhere("A", pick)
										if err != nil {
											errCh <- err
											return
										}
										if !ok {
											errCh <- &mismatchError{"A", pick, pick + 1, 0, 1}
											return
										}
										// Keep inserted ordered so undeleted rows
										// are the suffix: swap pick to the front
										// of the live window.
										for j := len(ledgers[w].deleted); j < len(ledgers[w].inserted); j++ {
											if ledgers[w].inserted[j] == pick {
												ledgers[w].inserted[j] = ledgers[w].inserted[len(ledgers[w].deleted)]
												ledgers[w].inserted[len(ledgers[w].deleted)] = pick
												break
											}
										}
										ledgers[w].deleted = append(ledgers[w].deleted, pick)
									}
								}
							}
							if shards > 1 {
								return
							}
							// Inserts only, a cap's worth: the writer that deletes
							// last still inserts this many after its delete, so the
							// queue reaches a multiple of the cap on an insert,
							// and that insert merges inline.
							const batch = 64
							for i := 0; i < shard.DefaultIngestCap; i += batch {
								rows := make([][]int64, batch)
								for j := range rows {
									v := vbase + seq[w]
									seq[w]++
									rows[j] = []int64{v, v + bOff}
									ledgers[w].inserted = append(ledgers[w].inserted, v)
								}
								if _, err := tab.InsertRows(rows); err != nil {
									errCh <- err
									return
								}
							}
						}(w)
					}
					go func() {
						writing.Wait()
						writersDone.Store(true)
					}()

					for g := 0; g < readers; g++ {
						wg.Add(1)
						go func(g int) {
							defer wg.Done()
							grng := rand.New(rand.NewPCG(uint64(g)+70, uint64(phase)))
							for i := 0; i < queries || !writersDone.Load(); i++ {
								lo := grng.Int64N(domain)
								hi := lo + grng.Int64N(domain/32) + 1
								col, seed := "A", seedA
								if i%2 == 1 {
									col, seed = "B", seedB
								}
								r, err := e.Select("R", col, lo, hi)
								if err != nil {
									errCh <- err
									return
								}
								wc, ws := naiveRange(seed, lo, hi)
								if r.Count != wc || r.Sum != ws {
									errCh <- &mismatchError{col, lo, hi, r.Count, wc}
									return
								}
								_ = ws
							}
						}(g)
					}

					wg.Wait()
					close(errCh)
					for err := range errCh {
						t.Fatal(err)
					}

					// Without an idle pool only an inline merge drains the
					// queues; each column buffers one entry per insert or delete.
					if shards == 1 && e.runner == nil {
						ops := -opsBefore
						for w := range ledgers {
							ops += len(ledgers[w].inserted) + len(ledgers[w].deleted)
						}
						if pending := tab.PendingOps(); pending >= 2*ops {
							t.Fatalf("phase %d: %d ops buffered of the %d written to two columns: no inline merge ran", phase, pending, 2*ops)
						}
					}

					// Quiesce point: serial replay of every committed op.
					wantCount := n
					wantSumA, wantSumB := seedSumA, seedSumB
					for w := range ledgers {
						wantCount += len(ledgers[w].inserted) - len(ledgers[w].deleted)
						for _, v := range ledgers[w].inserted {
							wantSumA += v
							wantSumB += v + bOff
						}
						for _, v := range ledgers[w].deleted {
							wantSumA -= v
							wantSumB -= v + bOff
						}
					}
					checkFullRange := func(tag string) {
						t.Helper()
						rA, err := e.Select("R", "A", 0, 1<<62)
						if err != nil {
							t.Fatal(err)
						}
						rB, err := e.Select("R", "B", 0, 1<<62)
						if err != nil {
							t.Fatal(err)
						}
						if rA.Count != wantCount || rA.Sum != wantSumA {
							t.Fatalf("%s: A %d/%d, replay oracle %d/%d",
								tag, rA.Count, rA.Sum, wantCount, wantSumA)
						}
						if rB.Count != wantCount || rB.Sum != wantSumB {
							t.Fatalf("%s: B %d/%d, replay oracle %d/%d",
								tag, rB.Count, rB.Sum, wantCount, wantSumB)
						}
						if got := tab.Rows(); got != wantCount {
							t.Fatalf("%s: Rows() = %d, replay oracle %d", tag, got, wantCount)
						}
					}
					checkFullRange("quiesce")
					// Force every buffered update through and re-check: the
					// merged structures alone must agree with the combine.
					tab.MergePending()
					checkFullRange("post-merge")
				}

				if got := tab.PendingOps(); got != 0 {
					t.Fatalf("pending ops after full merge: %d", got)
				}
				for _, col := range []string{"A", "B"} {
					sc, err := e.column("R", col)
					if err != nil {
						t.Fatal(err)
					}
					if err := sc.Validate(); err != nil {
						t.Fatalf("%s: %v", col, err)
					}
				}
			})
		}
	}
}

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
	for _, tc := range strategiesUnderTest {
		t.Run(tc.name, func(t *testing.T) {
			e := newEngineWithData(t, Config{Strategy: tc.s, Shards: 2}, []int64{1, 2, 3})
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
	for _, tc := range strategiesUnderTest {
		t.Run(tc.name, func(t *testing.T) {
			e := newEngineWithData(t, Config{Strategy: tc.s, Shards: 2}, seed)
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
