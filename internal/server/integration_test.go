package server

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"holistic/internal/engine"
	"holistic/internal/idle"
	"holistic/internal/loadgate"
	"holistic/internal/workload"
)

// TestServerEndToEndBurstyClients is the end-to-end acceptance test for the
// traffic-driven idle protocol: holisticd on loopback, 8 concurrent clients
// in bursty open/closed phases, asserting that
//
//	(a) every query result matches a serial oracle,
//	(b) idle refinement actions complete during traffic gaps, and
//	(c) zero idle refinement steps start while the in-flight request count
//	    is nonzero (the load gate is honored).
//
// (c) is made deterministic by pinning the gate busy with one synthetic
// long-running request for a whole phase: whatever the scheduler does, the
// in-flight count stays nonzero throughout, so any step grant during the
// phase would be a genuine gate violation.
func TestServerEndToEndBurstyClients(t *testing.T) {
	const (
		nClients = 8
		bursts   = 3
	)
	rows, perBurst := 100_000, 25
	if testing.Short() {
		// The race detector instruments every element move the background
		// crackers make; shrink the column so `-race -short` stays fast
		// while still exercising all three phases.
		rows, perBurst = 20_000, 10
	}

	eng := engine.New(engine.Config{
		Strategy:    engine.StrategyHolistic,
		Seed:        1,
		AutoIdle:    true,
		IdleWorkers: 2,
		// Small target piece size so refinement work outlasts the bursts:
		// with ~100k rows converged means ~1.5k pieces, far more than the
		// query-driven cracks alone produce, so every traffic gap has work.
		TargetPieceSize: 64,
	})
	defer eng.Close()

	// Pin the gate busy BEFORE it is attached and before any data exists:
	// from the idle pool's perspective the server is under traffic from the
	// first instant, so step grants must stay at zero until the pin lifts.
	gate := loadgate.New()
	gate.Begin()
	srv := New(Config{Engine: eng, Gate: gate})

	vals := workload.UniformData(11, rows, 1, int64(rows)+1)
	tab, err := eng.CreateTable("r")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumnFromSlice("a", append([]int64(nil), vals...)); err != nil {
		t.Fatal(err)
	}
	orc := newOracle(vals)

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	addr := lis.Addr().String()

	clients := make([]*Client, nClients)
	for i := range clients {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}

	// runBurst drives every client through n closed-loop queries and
	// verifies each response against the oracle.
	runBurst := func(n int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, nClients)
		for ci, c := range clients {
			wg.Add(1)
			go func(ci int, c *Client) {
				defer wg.Done()
				gen := workload.NewUniform("r", "a", 1, int64(rows)+1, 0.01, uint64(100+ci))
				for q := 0; q < n; q++ {
					qu := gen.Next()
					count, sum, err := c.Query(sqlFor(qu))
					if err != nil {
						errs <- err
						return
					}
					wantCount, wantSum := orc.countSum(qu.Lo, qu.Hi)
					if count != wantCount || sum != wantSum {
						errs <- &oracleMismatch{client: ci, lo: qu.Lo, hi: qu.Hi,
							gotCount: count, gotSum: sum, wantCount: wantCount, wantSum: wantSum}
						return
					}
				}
			}(ci, c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}

	// ---- Phase 1: busy-pinned. Traffic runs, the pin guarantees the
	// in-flight count never reaches zero, so no refinement step may start.
	runBurst(perBurst)
	time.Sleep(20 * idle.DefaultQuiet) // plenty of wall time for a buggy pool to fire
	if g := gate.Snapshot().StepGrants; g != 0 {
		t.Fatalf("criterion (c) violated: %d refinement steps started while requests were in flight", g)
	}
	if a := eng.AutoIdleActions(); a != 0 {
		t.Fatalf("criterion (c) violated: %d idle actions ran while requests were in flight", a)
	}

	// ---- Phase 2: the pin lifts — a traffic gap begins and the idle pool
	// must start refining.
	grantsBefore := gate.Snapshot().StepGrants
	gate.End()
	deadline := time.Now().Add(10 * time.Second)
	for eng.AutoIdleActions() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("criterion (b) violated: no idle refinement completed during the traffic gap (grants %d -> %d)",
				grantsBefore, gate.Snapshot().StepGrants)
		}
		time.Sleep(time.Millisecond)
	}

	// ---- Phase 3: bursty open/closed phases. Queries (verified against
	// the oracle even as idle refinement keeps cracking between bursts)
	// alternate with gaps that must keep earning refinement work.
	for b := 0; b < bursts; b++ {
		runBurst(perBurst)
		actionsBefore := eng.AutoIdleActions()
		gapDeadline := time.Now().Add(10 * time.Second)
		for eng.AutoIdleActions() == actionsBefore {
			// A converged column legitimately earns no further refinement:
			// the tuner reports exhaustion once pieces reach target size.
			if _, avg, _ := eng.PieceStats("r", "a"); avg <= 64 {
				break
			}
			if time.Now().After(gapDeadline) {
				pieces, avg, _ := eng.PieceStats("r", "a")
				t.Fatalf("criterion (b) violated: gap %d earned no refinement (pieces=%d avg=%.0f)",
					b, pieces, avg)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Final bookkeeping. The idle pool is legitimately mid-step in this last
	// gap, so quiesce before asserting balance: a pinned request admits no new
	// step, the running ones finish, and the snapshot is taken under the pin.
	gate.Begin()
	defer gate.End()
	for deadline := time.Now().Add(10 * time.Second); gate.RunningSteps() != 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("refinement steps still running 10s after the gate was pinned: %+v", gate.Snapshot())
		}
	}
	s := gate.Snapshot()
	if s.InFlight != 1 || s.RunningSteps != 0 {
		t.Fatalf("gate unbalanced after drain (want only the pin in flight): %+v", s)
	}
	wantRequests := int64(nClients*perBurst*(bursts+1)) + 1 // +1 for phase 1's pin
	if s.Arrivals != wantRequests+1 || s.Completed != wantRequests {
		t.Fatalf("gate saw %d arrivals, %d completed; want %d and %d", s.Arrivals, s.Completed, wantRequests+1, wantRequests)
	}
	if s.Gaps == 0 {
		t.Fatal("no traffic gaps recorded")
	}
	t.Logf("end-to-end: %d queries, %d idle actions, %d step grants, %d gaps, pieces converging",
		wantRequests-1, eng.AutoIdleActions(), s.StepGrants, s.Gaps)
}

type oracleMismatch struct {
	client              int
	lo, hi              int64
	gotCount, wantCount int
	gotSum, wantSum     int64
}

func (m *oracleMismatch) Error() string {
	return fmt.Sprintf("client %d, [%d, %d): got count=%d sum=%d, oracle says count=%d sum=%d",
		m.client, m.lo, m.hi, m.gotCount, m.gotSum, m.wantCount, m.wantSum)
}
