package snapshot

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
	e.SetWriteLog(s)
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
// fully on restart.
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
	if !s.Degraded() || !e.ReadOnly() {
		t.Fatalf("degraded=%v readOnly=%v, want true/true", s.Degraded(), e.ReadOnly())
	}
	// Reads still serve, and the failed insert admitted nothing.
	expect(t, e, "a", 0, 1_000, 100, 100*99/2)
	// Checkpoint action stops bidding on a degraded store.
	act := &CheckpointAction{Store: s}
	if got := act.Score(); got != 0 {
		t.Fatalf("degraded checkpoint score = %v, want 0", got)
	}
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

// TestOlderFormatNamed: a snapshot of an older format is refused with its
// version named, not as bad magic.
func TestOlderFormatNamed(t *testing.T) {
	img := EncodeState(engine.EngineState{})
	copy(img, "HOLSNP01")
	_, err := DecodeState(img)
	if err == nil || err.Error() != "snapshot: format 01, this build reads 02" {
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
