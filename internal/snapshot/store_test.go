package snapshot

import (
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"holistic/internal/costmodel"
	"holistic/internal/engine"
	"holistic/internal/wal"
)

func newEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(engine.Config{Strategy: engine.StrategyHolistic, Seed: 42})
	t.Cleanup(e.Close)
	return e
}

func openStore(t *testing.T, fs wal.FS, dir string, e *engine.Engine) (*Store, RecoveryInfo) {
	t.Helper()
	s, info, err := Open(fs, dir, e, Config{Policy: wal.Policy{Sync: wal.SyncAlways}, Shards: e.Shards()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, info
}

// seedTable creates table kv(a,b) with n rows a=i, b=2i and returns it.
func seedTable(t *testing.T, e *engine.Engine, n int) *engine.Table {
	t.Helper()
	tb, err := e.CreateTable("kv")
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	a := make([]int64, n)
	b := make([]int64, n)
	for i := range a {
		a[i] = int64(i)
		b[i] = int64(2 * i)
	}
	if err := tb.AddColumnFromSlice("a", a); err != nil {
		t.Fatalf("AddColumn a: %v", err)
	}
	if err := tb.AddColumnFromSlice("b", b); err != nil {
		t.Fatalf("AddColumn b: %v", err)
	}
	return tb
}

// expect runs a select on both columns and compares against want.
func expect(t *testing.T, e *engine.Engine, col string, lo, hi int64, wantCount int, wantSum int64) {
	t.Helper()
	res, err := e.Select("kv", col, lo, hi)
	if err != nil {
		t.Fatalf("Select %s: %v", col, err)
	}
	if res.Count != wantCount || res.Sum != wantSum {
		t.Fatalf("Select %s [%d,%d) = (%d, %d), want (%d, %d)", col, lo, hi, res.Count, res.Sum, wantCount, wantSum)
	}
}

// TestRecoverFromWALOnly: mutations logged but never checkpointed replay
// fully on restart. Nothing but Open attaches the store (openStore does
// not call SetWriteLog), so the writes are logged because Open attached it.
func TestRecoverFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	e1 := newEngine(t)
	s1, _ := openStore(t, nil, dir, e1)

	tb := seedTable(t, e1, 100)
	if _, err := tb.InsertRows([][]int64{{100, 200}, {101, 202}}); err != nil {
		t.Fatalf("InsertRows: %v", err)
	}
	if _, err := tb.DeleteWhere("a", 5); err != nil {
		t.Fatalf("DeleteWhere: %v", err)
	}
	if err := s1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	e2 := newEngine(t)
	_, info := openStore(t, nil, dir, e2)
	if info.SnapshotLoaded {
		t.Fatalf("no checkpoint was taken, yet a snapshot loaded")
	}
	if info.Replayed != 5 { // create + 2 addColumn + insert + delete
		t.Fatalf("replayed %d records, want 5", info.Replayed)
	}
	// 0..101 minus the deleted a=5: count 101, sum 0+..+101 - 5.
	expect(t, e2, "a", 0, 1_000, 101, 102*101/2-5)
	expect(t, e2, "b", 0, 10_000, 101, 102*101-10)
}

// TestCheckpointThenRecover: snapshot + WAL-suffix recovery restores data
// AND the physical design (crack pieces survive the restart).
func TestCheckpointThenRecover(t *testing.T) {
	dir := t.TempDir()
	e1 := newEngine(t)
	s1, _ := openStore(t, nil, dir, e1)
	seedTable(t, e1, 5000)

	// Crack a few ranges so the snapshot has a physical design to carry.
	for _, q := range [][2]int64{{100, 900}, {1500, 2500}, {3000, 4200}, {400, 4600}} {
		if _, err := e1.Select("kv", "a", q[0], q[1]); err != nil {
			t.Fatalf("Select: %v", err)
		}
	}
	piecesBefore, _, err := e1.PieceStats("kv", "a")
	if err != nil {
		t.Fatalf("PieceStats: %v", err)
	}
	if piecesBefore < 4 {
		t.Fatalf("expected cracked column, got %d pieces", piecesBefore)
	}

	if _, err := s1.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if s1.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", s1.Epoch())
	}

	// Post-checkpoint mutations land only in the WAL suffix.
	tb, _ := e1.Table("kv")
	if _, err := tb.InsertRow(9_000, 18_000); err != nil {
		t.Fatalf("InsertRow: %v", err)
	}
	if _, err := tb.DeleteWhere("a", 10); err != nil {
		t.Fatalf("DeleteWhere: %v", err)
	}
	s1.Close()

	e2 := newEngine(t)
	_, info := openStore(t, nil, dir, e2)
	if !info.SnapshotLoaded || info.Epoch != 1 {
		t.Fatalf("recovery info = %+v, want snapshot epoch 1", info)
	}
	if info.Replayed != 2 {
		t.Fatalf("replayed %d suffix records, want 2", info.Replayed)
	}
	piecesAfter, _, err := e2.PieceStats("kv", "a")
	if err != nil {
		t.Fatalf("PieceStats after recovery: %v", err)
	}
	if piecesAfter < piecesBefore {
		t.Fatalf("physical design lost: %d pieces after recovery, had %d", piecesAfter, piecesBefore)
	}
	// 0..4999 plus 9000, minus a=10.
	wantSum := int64(5000*4999/2) + 9000 - 10
	expect(t, e2, "a", 0, 10_000, 5000, wantSum)
}

// TestShortLogKeepsLaterWrites: a log that ends before the manifest's
// offset — a checkpoint whose log rebase never landed, over a log tail that
// never reached the disk — starts again at the offset, so a write
// acknowledged after the reopen is replayed by the next one.
func TestShortLogKeepsLaterWrites(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, walName)
	e1 := newEngine(t)
	s1, _ := openStore(t, nil, dir, e1)
	tb := seedTable(t, e1, 100)
	short, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]int64, 1000)
	for i := range rows {
		rows[i] = []int64{int64(100 + i), int64(2 * (100 + i))}
	}
	if _, err := tb.InsertRows(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	if err := os.WriteFile(walPath, short, 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := newEngine(t)
	s2, info := openStore(t, nil, dir, e2)
	if got := s2.log.Size(); got != info.WALOffset {
		t.Errorf("reopened log ends at %d, want the manifest's offset %d", got, info.WALOffset)
	}
	tb2, _ := e2.Table("kv")
	if g, err := tb2.InsertRow(5000, 10000); err != nil || g != 1100 {
		t.Fatalf("InsertRow after the reopen = %d, %v; want row 1100", g, err)
	}
	s2.Close()

	e3 := newEngine(t)
	_, info = openStore(t, nil, dir, e3)
	if info.Replayed != 1 {
		t.Fatalf("replayed %d records, want the acknowledged insert", info.Replayed)
	}
	expect(t, e3, "a", 0, 10_000, 1101, 1100*1099/2+5000)
}

// TestReplayInsertAgainstSnapshot: an insert record replays the rows past
// the table's row count only — a record whose first rows the snapshot
// already holds replays its tail — and one that starts past the row count
// is a gap in the log, which fails Open.
func TestReplayInsertAgainstSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name  string
		first uint32
	}{{"straddle", 98}, {"gap", 101}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			e1 := newEngine(t)
			s1, _ := openStore(t, nil, dir, e1)
			seedTable(t, e1, 100)
			if _, err := s1.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			var rows [][]int64
			for g := int64(tc.first); g < int64(tc.first)+4; g++ {
				rows = append(rows, []int64{g, 2 * g})
			}
			end, err := s1.LogInsert("kv", tc.first, rows)
			if err == nil {
				err = s1.WaitDurable(end)
			}
			if err != nil {
				t.Fatal(err)
			}
			s1.Close()

			e2 := newEngine(t)
			s2, info, err := Open(nil, dir, e2, Config{Policy: wal.Policy{Sync: wal.SyncAlways}, Shards: e2.Shards()})
			if tc.name == "gap" {
				if err == nil || !strings.Contains(err.Error(), "log gap") {
					t.Fatalf("Open over a record at row 101 of a 100-row table: %v, want the log-gap error", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s2.Close() })
			if info.Replayed != 1 {
				t.Fatalf("replayed %d records, want 1", info.Replayed)
			}
			// Rows 98 and 99 come from the snapshot, 100 and 101 from the record.
			expect(t, e2, "a", 0, 1000, 102, 101*102/2)
			tb, _ := e2.Table("kv")
			if g, err := tb.InsertRow(500, 1000); err != nil || g != 102 {
				t.Fatalf("InsertRow after the replay = %d, %v; want row 102", g, err)
			}
		})
	}
}

// TestReplayIntoAutoIdleEngine recovers a log of insert and delete records
// into a holistic engine whose idle pool is running, so each replayed
// statement's hold on the write gate races the pool's steps (CI runs it
// under -race -cpu 1,2,4). The inserts push the queues past their cap, so
// replay merges inline as the live statements did.
func TestReplayIntoAutoIdleEngine(t *testing.T) {
	const shards, base, batches, batch = 2, 20_000, 150, 64
	dir := t.TempDir()
	open := func(autoIdle bool) (*engine.Engine, *Store) {
		e := engine.New(engine.Config{Strategy: engine.StrategyHolistic, Seed: 42, Shards: shards, AutoIdle: autoIdle, IdleWorkers: 2})
		t.Cleanup(e.Close)
		s, _ := openStore(t, nil, dir, e)
		return e, s
	}
	e1, s1 := open(false)
	tb := seedTable(t, e1, base)
	count, sum := base, int64(base*(base-1)/2)
	for i := 0; i < batches; i++ {
		rows := make([][]int64, batch)
		for j := range rows {
			a := int64(base + i*batch + j)
			rows[j] = []int64{a, 2 * a}
			count, sum = count+1, sum+a
		}
		if _, err := tb.InsertRows(rows); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			gone := []int64{int64(i), int64(base + i*batch)}
			if n, err := tb.DeleteWhereIn("a", gone); err != nil || n != 2 {
				t.Fatalf("DeleteWhereIn(%v) = %d, %v", gone, n, err)
			}
			count, sum = count-2, sum-gone[0]-gone[1]
		}
	}
	s1.Close()

	e2, _ := open(true)
	expect(t, e2, "a", 0, 1<<40, count, sum)
	expect(t, e2, "b", 0, 1<<40, count, 2*sum)
	e2.MergePending()
	expect(t, e2, "a", 0, 1<<40, count, sum)
}

// TestCheckpointCompactsWAL: a checkpoint rebases the log so restart does
// not replay records the snapshot already covers.
func TestCheckpointCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	e1 := newEngine(t)
	s1, _ := openStore(t, nil, dir, e1)
	seedTable(t, e1, 2000)
	debt := s1.ReplayDebt()
	if debt == 0 {
		t.Fatalf("expected replay debt before checkpoint")
	}
	if n, err := s1.Checkpoint(); err != nil || n != debt {
		t.Fatalf("Checkpoint = (%d, %v), want (%d, nil)", n, err, debt)
	}
	if got := s1.ReplayDebt(); got != 0 {
		t.Fatalf("replay debt %d after checkpoint, want 0", got)
	}
	st, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatalf("stat wal: %v", err)
	}
	if st.Size() > 64 {
		t.Fatalf("wal is %d bytes after rebase, want near-empty", st.Size())
	}
}

// TestCheckpointRenameFailureKeepsOldEpoch: a failed manifest publish
// leaves the previous epoch recoverable; nothing is lost.
func TestCheckpointRenameFailureKeepsOldEpoch(t *testing.T) {
	dir := t.TempDir()
	ffs := wal.NewFaultFS(wal.OSFS{})
	e1 := newEngine(t)
	s1, _ := openStore(t, ffs, dir, e1)
	seedTable(t, e1, 500)

	// First rename in a checkpoint publishes the snapshot file, the second
	// the manifest. Fail both in turn and verify full recovery each time.
	for fail := 1; fail <= 2; fail++ {
		ffs.FailRenames(fail, errors.New("injected rename failure"))
		if _, err := s1.Checkpoint(); err == nil {
			t.Fatalf("checkpoint with rename fault %d should fail", fail)
		}
		if n := ffs.Injected(); n != fail {
			t.Fatalf("%d rename faults injected after arming %d", n, fail)
		}
		ffs.Clear()
		if s1.Epoch() != 0 {
			t.Fatalf("epoch advanced to %d despite failed publish", s1.Epoch())
		}
	}
	s1.Close()

	e2 := newEngine(t)
	_, info := openStore(t, nil, dir, e2)
	if info.SnapshotLoaded {
		t.Fatalf("failed checkpoints must not publish a snapshot")
	}
	expect(t, e2, "a", 0, 500, 500, 500*499/2)
}

// TestDegradedLogTurnsEngineReadOnly: a persistently failing WAL makes
// writes fail with engine.ErrReadOnly and flips ReadOnly(); reads survive.
func TestDegradedLogTurnsEngineReadOnly(t *testing.T) {
	dir := t.TempDir()
	ffs := wal.NewFaultFS(wal.OSFS{})
	e := newEngine(t)
	s, _ := openStore(t, ffs, dir, e)
	tb := seedTable(t, e, 100)

	ffs.FailWrites(1, errors.New("disk on fire"), true)
	if _, err := tb.InsertRow(1, 2); !errors.Is(err, engine.ErrReadOnly) {
		t.Fatalf("insert on degraded log: err = %v, want ErrReadOnly", err)
	}
	if !s.Degraded() || !e.ReadOnly() || ffs.Injected() == 0 {
		t.Fatalf("degraded=%v readOnly=%v, %d faults injected, want true/true and some", s.Degraded(), e.ReadOnly(), ffs.Injected())
	}
	// Reads still serve, and the failed insert admitted nothing.
	expect(t, e, "a", 0, 1_000, 100, 100*99/2)
	// Checkpoint action stops bidding on a degraded store.
	act := &CheckpointAction{Store: s}
	if got := act.Score(); got != 0 {
		t.Fatalf("degraded checkpoint score = %v, want 0", got)
	}
}

// TestColdOpenRefusesLoadedEngine: a data dir with no snapshot yet refuses
// an engine that already holds a table, as a snapshot's restore does: the
// log never recorded that table, so no replay could apply the inserts it
// would log into it. The refused dir stays recoverable.
func TestColdOpenRefusesLoadedEngine(t *testing.T) {
	dir := t.TempDir()
	e1 := newEngine(t)
	seedTable(t, e1, 10)
	if s, _, err := Open(nil, dir, e1, Config{Shards: e1.Shards()}); err == nil {
		s.Close()
		t.Fatal("cold Open accepted an engine that already holds table kv")
	}
	e2 := newEngine(t)
	s2, _ := openStore(t, nil, dir, e2)
	if _, err := seedTable(t, e2, 10).InsertRow(10, 20); err != nil {
		t.Fatalf("InsertRow: %v", err)
	}
	s2.Close()
	e3 := newEngine(t)
	openStore(t, nil, dir, e3)
	expect(t, e3, "a", 0, 100, 11, 55)
}

// TestShardMismatchRefused: a data dir laid out with N shards refuses to
// open under a different shard count (striping is positional).
func TestShardMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	e1 := newEngine(t)
	s1, _ := openStore(t, nil, dir, e1)
	seedTable(t, e1, 100)
	if _, err := s1.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	s1.Close()

	e2 := newEngine(t)
	_, _, err := Open(nil, dir, e2, Config{Shards: e2.Shards() + 1})
	if err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("shard mismatch not refused: %v", err)
	}
}

// TestCorruptSnapshotFailsLoudly: a bit flip in the snapshot file fails
// recovery with a checksum error instead of restoring garbage.
func TestCorruptSnapshotFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	e1 := newEngine(t)
	s1, _ := openStore(t, nil, dir, e1)
	seedTable(t, e1, 300)
	if _, err := s1.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	s1.Close()

	snap := filepath.Join(dir, "snap-1.snap")
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(snap, b, 0o644); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}

	e2 := newEngine(t)
	_, _, err = Open(nil, dir, e2, Config{Shards: e2.Shards()})
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt snapshot not refused: %v", err)
	}
}

// TestCorruptCopyFailsFirstDelete: a snapshot whose copy has one value
// changed inside its piece's bounds carries a valid checksum and passes
// restore (the copy's length and the index's invariants hold). Row ids are
// not in the file, so the first DELETE attaches them from the base, and
// that attach refuses the copy: the statement fails naming the part, and
// no row is tombstoned, buffered or logged.
func TestCorruptCopyFailsFirstDelete(t *testing.T) {
	dir := t.TempDir()
	twoParts := func() *engine.Engine {
		e := engine.New(engine.Config{Strategy: engine.StrategyHolistic, Seed: 42, Shards: 2})
		t.Cleanup(e.Close)
		return e
	}
	e1 := twoParts()
	s1, _ := openStore(t, nil, dir, e1)
	seedTable(t, e1, 5000)
	for _, q := range [][2]int64{{100, 900}, {1500, 2500}} {
		if _, err := e1.Select("kv", "a", q[0], q[1]); err != nil {
			t.Fatalf("Select: %v", err)
		}
	}
	if _, err := s1.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	s1.Close()

	snap := filepath.Join(dir, "snap-1.snap")
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	st, err := DecodeState(b)
	if err != nil {
		t.Fatal(err)
	}
	// Column a holds a=i, part 0 its even rows: give part 0's piece
	// [100, 900) the value 102 twice, one in place of another of its values.
	p := &st.Tables[0].Columns[0].Parts[0]
	i := slices.IndexFunc(p.CrackVals, func(v int64) bool { return v >= 100 && v < 900 && v != 102 })
	if !p.HasCrack || i < 0 || !slices.Contains(p.CrackVals, 102) {
		t.Fatalf("setup: part 0 of a has no piece [100, 900) holding 102 and another value")
	}
	p.CrackVals[i] = 102
	if err := os.WriteFile(snap, EncodeState(st), 0o644); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}

	e2 := twoParts()
	s2, info := openStore(t, nil, dir, e2)
	if !info.SnapshotLoaded {
		t.Fatalf("the snapshot did not load: %+v", info)
	}
	tb, _ := e2.Table("kv")
	records := s2.LogStats().Records
	n, err := tb.DeleteWhereIn("a", []int64{3000, 4})
	if err == nil || n != 0 || !strings.Contains(err.Error(), "part kv.a#0:") || strings.Contains(err.Error(), "kv.a#1") {
		t.Fatalf("DeleteWhereIn over the corrupt copy = %d, %v; want 0 and an error naming kv.a#0 alone", n, err)
	}
	if got := s2.LogStats().Records; got != records {
		t.Fatalf("the refused DELETE logged %d records", got-records)
	}
	if live, pending := tb.Rows(), tb.PendingOps(); live != 5000 || pending != 0 {
		t.Fatalf("after the refused DELETE: %d live rows, %d buffered ops; want 5000 and 0", live, pending)
	}
	expect(t, e2, "b", 0, 10_000, 5000, 5000*4999)
}

// TestOlderFormatNamed: a snapshot of an older format is refused with its
// version named, not as bad magic.
func TestOlderFormatNamed(t *testing.T) {
	img := EncodeState(engine.EngineState{})
	copy(img, "HOLSNP01")
	_, err := DecodeState(img)
	if err == nil || err.Error() != "snapshot: format 01, this build reads 02 and 03" {
		t.Fatalf("format 01 image: %v", err)
	}
}

// TestTornWALTailRecovered: a torn frame at the log's tail is truncated and
// every fully-synced statement before it survives.
func TestTornWALTailRecovered(t *testing.T) {
	dir := t.TempDir()
	e1 := newEngine(t)
	s1, _ := openStore(t, nil, dir, e1)
	seedTable(t, e1, 50)
	s1.Close()

	// Tear the last frame: chop bytes off the file's end.
	walPath := filepath.Join(dir, walName)
	b, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	if err := os.WriteFile(walPath, b[:len(b)-3], 0o644); err != nil {
		t.Fatalf("tear wal: %v", err)
	}

	e2 := newEngine(t)
	_, info := openStore(t, nil, dir, e2)
	if info.TornAt < 0 {
		t.Fatalf("expected torn-tail report, got %+v", info)
	}
	// The torn record (addColumn b) is gone; table kv with column a stays.
	if info.Replayed != 2 {
		t.Fatalf("replayed %d records, want 2 (create + addColumn a)", info.Replayed)
	}
	expect(t, e2, "a", 0, 50, 50, 50*49/2)
}

// TestPreExtendedWALRecovers: a store crashed while open leaves its log
// extended with zeros past the last frame. Recovery reports no tear and
// loses nothing; a partial frame in the zeros is reported as a tear and cut.
func TestPreExtendedWALRecovers(t *testing.T) {
	dir := t.TempDir()
	e1 := newEngine(t)
	s1, _ := openStore(t, nil, dir, e1)
	tb := seedTable(t, e1, 50)
	if _, err := tb.InsertRow(1000, 2000); err != nil {
		t.Fatal(err)
	}
	crashed, err := os.ReadFile(filepath.Join(dir, walName)) // s1 is still open
	if err != nil {
		t.Fatal(err)
	}
	end := s1.log.Size() // the records end here; the extension follows
	partial := append([]byte(nil), crashed...)
	copy(partial[16+end:], wal.EncodeFrame(nil, []byte("torn record"))[:9]) // past the 16-byte file header
	for _, tc := range []struct {
		name string
		wal  []byte
		torn bool
	}{{"zeros", crashed, false}, {"partial frame", partial, true}} {
		t.Run(tc.name, func(t *testing.T) {
			d := t.TempDir()
			if err := os.WriteFile(filepath.Join(d, walName), tc.wal, 0o644); err != nil {
				t.Fatal(err)
			}
			e2 := newEngine(t)
			_, info := openStore(t, nil, d, e2)
			if (info.TornAt >= 0) != tc.torn || info.Replayed != 4 {
				t.Fatalf("recovery %+v, want torn %v and 4 records replayed", info, tc.torn)
			}
			expect(t, e2, "a", 0, 2000, 51, 50*49/2+1000)
		})
	}
}

// TestRecordRoundTrip covers every opcode through Encode/Decode.
func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Op: opCreateTable, Table: "t"},
		{Op: opAddColumn, Table: "t", Col: "c", Vals: []int64{1, -2, 3}},
		{Op: opInsert, Table: "t", First: 7, Rows: [][]int64{{1, 2}, {3, 4}}},
		{Op: opDelete, Table: "t", DelRows: []uint32{0, 5, 9}},
	}
	for _, r := range recs {
		got, err := DecodeRecord(EncodeRecord(r))
		if err != nil {
			t.Fatalf("round trip op %d: %v", r.Op, err)
		}
		if got.Op != r.Op || got.Table != r.Table || got.Col != r.Col {
			t.Fatalf("round trip op %d: got %+v", r.Op, got)
		}
		if len(got.Vals) != len(r.Vals) || len(got.Rows) != len(r.Rows) || len(got.DelRows) != len(r.DelRows) {
			t.Fatalf("round trip op %d lengths: got %+v", r.Op, got)
		}
	}
	if _, err := DecodeRecord([]byte{99, 0}); err == nil {
		t.Fatalf("unknown op accepted")
	}
	if _, err := DecodeRecord(nil); err == nil {
		t.Fatalf("empty record accepted")
	}
}

// TestCheckpointAuctionIntegration: the checkpoint action registered with
// the tuner runs via idle steps once replay debt passes
// costmodel.DefaultSnapshotThreshold.
func TestCheckpointAuctionIntegration(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t)
	s, _ := openStore(t, nil, dir, e)
	e.RegisterAux(&CheckpointAction{Store: s, Logf: t.Logf})
	seedTable(t, e, 1<<17) // two columns of 8-byte values: 2 MiB of WAL

	if s.ReplayDebt() < costmodel.DefaultSnapshotThreshold {
		t.Fatalf("test needs replay debt past threshold, have %d", s.ReplayDebt())
	}
	e.IdleActions(64)
	if s.Epoch() == 0 {
		t.Fatalf("idle pool never ran the checkpoint action")
	}
	if s.ReplayDebt() != 0 {
		t.Fatalf("replay debt %d after idle checkpoint", s.ReplayDebt())
	}
}

// TestAddColumnBodyFaults fails the write of a column load's values — the
// body of its frame, written from the caller's memory — by error, short
// write, bit flip and a dead disk. A reopen replays the whole column or
// none of it, never a partial record.
func TestAddColumnBodyFaults(t *testing.T) {
	boom := errors.New("write: EIO")
	for _, tc := range []struct {
		name   string
		arm    func(*wal.FaultFS) // the values are the frame's first write, its head the second
		whole  bool               // a reopen replays column b
		fails  bool               // the load is refused, read-only
		faults int                // faults the arm fires
	}{
		{"error", func(f *wal.FaultFS) { f.FailWrites(1, boom, false) }, true, false, 1},
		{"short", func(f *wal.FaultFS) { f.ShortWrite(1) }, true, false, 1},
		{"flip", func(f *wal.FaultFS) { f.FlipBit(1) }, false, false, 1},
		{"sticky", func(f *wal.FaultFS) { f.FailWrites(1, boom, true) }, false, true, wal.DefaultRetries + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := wal.NewFaultFS(wal.OSFS{})
			e1 := newEngine(t)
			s1, _ := openStore(t, ffs, dir, e1)
			tb, err := e1.CreateTable("kv")
			if err != nil {
				t.Fatal(err)
			}
			a, b := make([]int64, 5000), make([]int64, 5000)
			for i := range a {
				a[i], b[i] = int64(i), int64(2*i)
			}
			if err := tb.AddColumnFromSlice("a", a); err != nil {
				t.Fatal(err)
			}
			tc.arm(ffs)
			err = tb.AddColumnFromSlice("b", b)
			if tc.fails != errors.Is(err, engine.ErrReadOnly) || (!tc.fails && err != nil) {
				t.Fatalf("load of b: %v", err)
			}
			if n := ffs.Injected(); n != tc.faults {
				t.Fatalf("%d faults injected, want %d", n, tc.faults)
			}
			s1.Close()
			ffs.Clear()

			e2 := newEngine(t)
			_, info := openStore(t, nil, dir, e2)
			tb2, err := e2.Table("kv")
			if err != nil {
				t.Fatal(err)
			}
			wantCols := []string{"a"}
			if tc.whole {
				wantCols = append(wantCols, "b")
			}
			if cols := tb2.Columns(); !slices.Equal(cols, wantCols) {
				t.Fatalf("reopen %+v: columns %v, want %v", info, cols, wantCols)
			}
			expect(t, e2, "a", 0, 5000, 5000, 5000*4999/2)
			if tc.whole {
				expect(t, e2, "b", 0, 10000, 5000, 5000*4999)
			}
		})
	}
}

// TestStripedLoadSurvivesRestart loads two columns of a three-shard table
// through a store under each fsync policy, closes it with no checkpoint and
// reopens it: every row reads back in row order, so the log holds each
// column as it was handed in, not as the load striped it. No goroutine
// outlives a load.
func TestStripedLoadSurvivesRestart(t *testing.T) {
	const shards, rows = 3, 10_007
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval, wal.SyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			open := func() (*engine.Engine, *Store) {
				e := engine.New(engine.Config{Strategy: engine.StrategyHolistic, Seed: 42, Shards: shards})
				t.Cleanup(e.Close)
				s, _, err := Open(nil, dir, e, Config{Policy: wal.Policy{Sync: policy}, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				return e, s
			}
			e1, s1 := open()
			tb, err := e1.CreateTable("kv")
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(1, uint64(policy)))
			want := map[string][]int64{}
			goroutines := runtime.NumGoroutine()
			for _, col := range []string{"a", "b"} {
				vals := make([]int64, rows)
				for i := range vals {
					vals[i] = rng.Int64()
				}
				want[col] = slices.Clone(vals)
				if err := tb.AddColumnFromSlice(col, vals); err != nil {
					t.Fatal(err)
				}
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the loads, %d before", runtime.NumGoroutine(), goroutines)
				}
			}

			if err := s1.Close(); err != nil {
				t.Fatal(err)
			}
			e2, _ := open()
			st, err := e2.CaptureState(nil)
			if err != nil {
				t.Fatal(err)
			}
			for j, c := range st.Tables[0].Columns {
				col := st.Tables[0].Order[j]
				for g, v := range want[col] {
					if got := c.Parts[g%shards].Vals[g/shards]; got != v {
						t.Fatalf("%s row %d reads %d after the restart, was loaded as %d", col, g, got, v)
					}
				}
			}
		})
	}
}

// gatedSyncFS parks each fsync of the files it opened, once armed, until
// release is closed, and says so on entered.
type gatedSyncFS struct {
	wal.OSFS
	armed            atomic.Bool
	entered, release chan struct{}
}

func (g *gatedSyncFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := g.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gatedSyncFile{File: f, fs: g}, nil
}

type gatedSyncFile struct {
	wal.File
	fs *gatedSyncFS
}

func (f *gatedSyncFile) Sync() error {
	if f.fs.armed.CompareAndSwap(true, false) {
		close(f.fs.entered)
		<-f.fs.release
	}
	return f.File.Sync()
}

// TestLoadPublishedOnceDurable: a logged column load is not in the catalog
// while its record's fsync is in flight, and is once the load returns.
func TestLoadPublishedOnceDurable(t *testing.T) {
	gfs := &gatedSyncFS{entered: make(chan struct{}), release: make(chan struct{})}
	e := engine.New(engine.Config{Strategy: engine.StrategyHolistic, Seed: 42, Shards: 2})
	t.Cleanup(e.Close)
	openStore(t, gfs, t.TempDir(), e)
	tb, err := e.CreateTable("kv")
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i)
	}
	gfs.armed.Store(true)
	loaded := make(chan error, 1)
	go func() { loaded <- tb.AddColumnFromSlice("a", vals) }()
	<-gfs.entered
	if cols := tb.Columns(); len(cols) != 0 {
		t.Fatalf("columns %v published before the load's record is durable", cols)
	}
	close(gfs.release)
	if err := <-loaded; err != nil {
		t.Fatal(err)
	}
	res, err := e.Select("kv", "a", 0, 1000)
	if err != nil || res.Count != 1000 || res.Sum != 999*1000/2 {
		t.Fatalf("select after the load: %+v, %v", res, err)
	}
}
