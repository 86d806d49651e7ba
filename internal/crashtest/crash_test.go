package crashtest

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"holistic/internal/engine"
	"holistic/internal/snapshot"
	"holistic/internal/wal"
)

// The harness re-execs the test binary as a child workload process: when
// the mode env var is set, TestMain runs childMain instead of the tests.
// The parent kills the child at arbitrary points (SIGKILL — no cleanup
// runs) and then plays database: recover the data directory and check it
// against the oracle.
const (
	envMode   = "HOLISTIC_CRASHTEST_MODE"
	envDir    = "HOLISTIC_CRASHTEST_DIR"
	envLedger = "HOLISTIC_CRASHTEST_LEDGER"
	envStart  = "HOLISTIC_CRASHTEST_START"
)

func TestMain(m *testing.M) {
	if os.Getenv(envMode) != "" {
		os.Exit(childMain())
	}
	os.Exit(m.Run())
}

// The workload runs two writers, each on its own lane of values, so their
// statements share the log's fsyncs. Each lane is deterministic, so any
// statement prefix of it has a computable oracle: statement i of lane k
// inserts value laneValue(k, i), except every fifth statement (i%5 == 4),
// which deletes the value the lane's previous statement inserted — so the
// target always exists and values are never reused.
const lanes = 2

func stmtIsDelete(i int) bool { return i%5 == 4 }

// laneValue is the value statement i of lane k inserts.
func laneValue(k, i int) int64 { return int64(k)<<40 + int64(i) }

// oracleAfter returns lane k's live count and value sum after its first m
// statements.
func oracleAfter(k, m int) (count int, sum int64) {
	for i := 0; i < m; i++ {
		if stmtIsDelete(i) {
			count--
			sum -= laneValue(k, i-1)
		} else {
			count++
			sum += laneValue(k, i)
		}
	}
	return count, sum
}

// childMain is the workload process: recover the data dir, then run one
// writer goroutine per lane, each executing its lane's statements from the
// lane's start index and appending a statement's index to the lane's acked
// ledger only after the engine acknowledged it. Every statement is durably
// logged before it is acked (fsync=always), so the recovered state must
// cover every ledger entry. A graceful child drains on SIGTERM the same way
// holisticd does: it lets each writer finish its statement, merges pending
// buffers, checkpoints, closes the log, and reports what it saw in a marker
// file.
func childMain() int {
	dir := os.Getenv(envDir)
	var start [lanes]int
	for k, f := range strings.Split(os.Getenv(envStart), ",") {
		start[k], _ = strconv.Atoi(f)
	}

	eng := engine.New(engine.Config{Strategy: engine.StrategyHolistic, Seed: 7})
	store, _, err := snapshot.Open(nil, dir, eng, snapshot.Config{
		Policy: wal.Policy{Sync: wal.SyncAlways},
		Shards: eng.Shards(),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "child: open store: %v\n", err)
		return 1
	}

	// Schema setup is idempotent: a kill mid-setup leaves any prefix of
	// {createTable, addColumn} in the log, and the next run finishes it.
	tb, err := eng.Table("t")
	if err != nil {
		if tb, err = eng.CreateTable("t"); err != nil {
			fmt.Fprintf(os.Stderr, "child: create table: %v\n", err)
			return 1
		}
	}
	if len(tb.Columns()) == 0 {
		if err := tb.AddColumnFromSlice("a", nil); err != nil {
			fmt.Fprintf(os.Stderr, "child: add column: %v\n", err)
			return 1
		}
	}
	var stop atomic.Bool
	var stmts [lanes]int
	var wg sync.WaitGroup
	for k := 0; k < lanes; k++ {
		ledger, err := os.OpenFile(laneLedger(os.Getenv(envLedger), k), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "child: ledger: %v\n", err)
			return 1
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			stmts[k] = runLane(eng, tb, k, start[k], ledger, &stop)
		}()
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	<-sig
	stop.Store(true)
	wg.Wait()
	return childShutdown(eng, store, stmts)
}

// laneLedger is lane k's acked ledger.
func laneLedger(ledger string, k int) string { return fmt.Sprintf("%s.%d", ledger, k) }

// runLane executes lane k's statements from start until stop is set and
// returns the index of the first statement it did not run. A failed
// statement ends the child.
func runLane(eng *engine.Engine, tb *engine.Table, k, start int, ledger *os.File, stop *atomic.Bool) int {
	lw := bufio.NewWriter(ledger)
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "child: lane %d: "+format+"\n", append([]any{k}, args...)...)
		os.Exit(1)
	}
	i := start
	for ; !stop.Load(); i++ {
		if stmtIsDelete(i) {
			ok, err := tb.DeleteWhere("a", laneValue(k, i-1))
			if err != nil || !ok {
				fail("stmt %d delete: ok=%v err=%v", i, ok, err)
			}
		} else {
			if _, err := tb.InsertRow(laneValue(k, i)); err != nil {
				fail("stmt %d insert: %v", i, err)
			}
		}
		// Ack: the statement is durably logged; record it. SIGKILL loses
		// no completed file writes (the page cache survives the process),
		// so the flushed ledger is an exact record of acked statements.
		fmt.Fprintf(lw, "%d\n", i)
		if err := lw.Flush(); err != nil {
			fail("ledger write: %v", err)
		}
		// Query now and then so a physical design accumulates — the warm
		// restart assertions need crack pieces to carry over.
		if i%64 == 63 {
			lo := laneValue(k, i-60)
			if _, err := eng.Select("t", "a", lo, lo+40); err != nil {
				fail("stmt %d select: %v", i, err)
			}
		}
	}
	return i
}

// childShutdown is the graceful path, ordered like holisticd's SIGTERM
// handler: merge pending buffers, checkpoint, close the log. The marker
// file reports each lane's statement count and the piece count for the
// parent's warm-restart assertions.
func childShutdown(eng *engine.Engine, store *snapshot.Store, stmts [lanes]int) int {
	eng.MergePending()
	// Crack the merged column before the final checkpoint: merges reset
	// crack indexes (positions shift), so the design worth preserving is
	// the one built on the final merged layout.
	n := int64(stmts[0])
	for _, q := range [][2]int64{{10, n / 3}, {n / 2, n - 5}} {
		if _, err := eng.Select("t", "a", q[0], q[1]); err != nil {
			fmt.Fprintf(os.Stderr, "child: shutdown crack select: %v\n", err)
			return 1
		}
	}
	if _, err := store.Checkpoint(); err != nil {
		fmt.Fprintf(os.Stderr, "child: final checkpoint: %v\n", err)
		return 1
	}
	if err := store.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "child: close store: %v\n", err)
		return 1
	}
	pieces, _, err := eng.PieceStats("t", "a")
	if err != nil {
		fmt.Fprintf(os.Stderr, "child: piece stats: %v\n", err)
		return 1
	}
	marker := fmt.Sprintf("stmts=%d,%d pieces=%d\n", stmts[0], stmts[1], pieces)
	if err := os.WriteFile(os.Getenv(envDir)+"/MARKER", []byte(marker), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "child: marker: %v\n", err)
		return 1
	}
	return 0
}

// spawnChild starts the workload process over dir from each lane's
// statement index in start and returns the running command plus its stderr
// buffer.
func spawnChild(t *testing.T, dir, ledger string, start [lanes]int) (*exec.Cmd, *bytes.Buffer) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	cmd := exec.Command(exe, "-test.run=NONE")
	cmd.Env = append(os.Environ(),
		envMode+"=workload",
		envDir+"="+dir,
		envLedger+"="+ledger,
		envStart+"="+strconv.Itoa(start[0])+","+strconv.Itoa(start[1]),
	)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start child: %v", err)
	}
	return cmd, &stderr
}

// ledgerCount returns how many statements of lane k the child acked.
func ledgerCount(t *testing.T, ledger string, k int) int {
	t.Helper()
	b, err := os.ReadFile(laneLedger(ledger, k))
	if err != nil {
		if os.IsNotExist(err) {
			return 0
		}
		t.Fatalf("read ledger: %v", err)
	}
	return strings.Count(string(b), "\n")
}

// recoverDir opens the data dir into a fresh engine and returns both; the
// caller owns closing them.
func recoverDir(t *testing.T, dir string) (*engine.Engine, *snapshot.Store, snapshot.RecoveryInfo) {
	t.Helper()
	eng := engine.New(engine.Config{Strategy: engine.StrategyHolistic, Seed: 7})
	store, info, err := snapshot.Open(nil, dir, eng, snapshot.Config{
		Policy: wal.Policy{Sync: wal.SyncAlways},
		Shards: eng.Shards(),
	})
	if err != nil {
		eng.Close()
		t.Fatalf("recover %s: %v", dir, err)
	}
	return eng, store, info
}

// stateOf answers (live count, value sum) for lane k's values. A kill
// during schema setup leaves no queryable column yet; that state is the
// empty prefix, not an error.
func stateOf(t *testing.T, eng *engine.Engine, k int) (int, int64) {
	t.Helper()
	res, err := eng.Select("t", "a", laneValue(k, 0), laneValue(k+1, 0))
	switch {
	case err == nil:
		return res.Count, res.Sum
	case errors.Is(err, engine.ErrNoTable) || errors.Is(err, engine.ErrNoColumn):
		return 0, 0
	default:
		t.Fatalf("oracle select: %v", err)
		return 0, 0
	}
}

// TestCrashRecoveryOracle kills the workload at arbitrary points, recovers,
// and requires each lane's state to be EXACTLY a prefix of its statements:
// at least every acked statement (durability — nothing acked is lost,
// nothing applied twice), at most one statement more (the lane writer's
// single in-flight statement a crash may or may not have persisted).
func TestCrashRecoveryOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("child-process crash rounds are not -short material")
	}
	root := t.TempDir()
	dir := filepath.Join(root, "data")
	ledger := filepath.Join(root, "ledger")
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))

	var start [lanes]int
	for round := 0; round < 4; round++ {
		cmd, stderr := spawnChild(t, dir, ledger, start)
		// Let the child get some statements in, then kill it mid-flight.
		time.Sleep(time.Duration(10+rng.Intn(80)) * time.Millisecond)
		cmd.Process.Signal(syscall.SIGKILL)
		cmd.Wait()
		if s := stderr.String(); s != "" {
			t.Fatalf("round %d: child reported errors before the kill:\n%s", round, s)
		}

		// Even with zero new acks this round, recovery must run: a lane's
		// in-flight statement may have landed, and the next child must
		// start after it or it would apply twice.
		eng, store, _ := recoverDir(t, dir)
		for k := 0; k < lanes; k++ {
			acked := ledgerCount(t, ledger, k)
			if acked < start[k] {
				t.Fatalf("round %d lane %d: ledger shrank (%d acked, started at %d)", round, k, acked, start[k])
			}
			count, sum := stateOf(t, eng, k)
			matched := -1
			for _, m := range []int{acked, acked + 1} {
				if c, s := oracleAfter(k, m); c == count && s == sum {
					matched = m
					break
				}
			}
			if matched < 0 {
				ac, as := oracleAfter(k, acked)
				t.Fatalf("round %d lane %d: recovered (count=%d sum=%d) matches neither %d acked statements (want count=%d sum=%d) nor %d",
					round, k, count, sum, acked, ac, as, acked+1)
			}
			t.Logf("round %d lane %d: %d acked, recovered state = %d statements", round, k, acked, matched)

			// Sync the ledger to the resolved prefix so the next round's
			// child continues exactly where the recovered state ends.
			var sb strings.Builder
			for i := 0; i < matched; i++ {
				fmt.Fprintf(&sb, "%d\n", i)
			}
			if err := os.WriteFile(laneLedger(ledger, k), []byte(sb.String()), 0o644); err != nil {
				t.Fatalf("rewrite ledger: %v", err)
			}
			start[k] = matched
		}
		store.Close()
		eng.Close()
	}
	if start[0] == 0 || start[1] == 0 {
		t.Fatalf("a lane acked no statement in any round (%v); kill delays too short", start)
	}
}

// TestGracefulShutdownWarmRestart drives the workload, stops it with
// SIGTERM (drain → merge → checkpoint → close), and requires the restart
// to (a) match the oracle exactly — a graceful stop has no in-flight
// statement — (b) replay zero WAL records, and (c) still hold the crack
// pieces the first process earned, so the first query runs at refined
// speed without re-cracking.
func TestGracefulShutdownWarmRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("child-process rounds are not -short material")
	}
	root := t.TempDir()
	dir := filepath.Join(root, "data")
	ledger := filepath.Join(root, "ledger")

	cmd, stderr := spawnChild(t, dir, ledger, [lanes]int{})
	// Give it time to build state and crack (selects fire every 64 stmts).
	time.Sleep(300 * time.Millisecond)
	cmd.Process.Signal(syscall.SIGTERM)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("graceful child exited badly: %v\n%s", err, stderr.String())
	}

	marker, err := os.ReadFile(filepath.Join(dir, "MARKER"))
	if err != nil {
		t.Fatalf("child wrote no shutdown marker: %v\n%s", err, stderr.String())
	}
	var stmts [lanes]int
	var pieces int
	if _, err := fmt.Sscanf(string(marker), "stmts=%d,%d pieces=%d", &stmts[0], &stmts[1], &pieces); err != nil {
		t.Fatalf("bad marker %q: %v", marker, err)
	}
	if stmts[0] < 100 || stmts[1] < 100 || pieces < 2 {
		t.Fatalf("child did too little to test warmth: %s", marker)
	}

	eng, store, info := recoverDir(t, dir)
	defer eng.Close()
	defer store.Close()
	if !info.SnapshotLoaded || info.Replayed != 0 {
		t.Fatalf("graceful restart should be pure snapshot: %+v", info)
	}
	for k := 0; k < lanes; k++ {
		count, sum := stateOf(t, eng, k)
		if c, s := oracleAfter(k, stmts[k]); c != count || s != sum {
			t.Fatalf("lane %d recovered (count=%d sum=%d), oracle after %d statements wants (%d, %d)", k, count, sum, stmts[k], c, s)
		}
	}
	got, _, err := eng.PieceStats("t", "a")
	if err != nil {
		t.Fatalf("PieceStats: %v", err)
	}
	if got < pieces {
		t.Fatalf("physical design lost across graceful restart: %d pieces, child had %d", got, pieces)
	}
}
