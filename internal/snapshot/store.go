// Package snapshot is the durability layer above internal/wal: columnar
// snapshots of the engine's merged storage AND its per-shard physical
// design (crack-tree boundaries, or a part's index sorted), a manifest binding each
// snapshot to the statement-log offset it covers, and the Store that ties
// them to a live engine — logging every statement before it is
// acknowledged, checkpointing from the idle pool, and recovering at boot
// by loading the newest valid snapshot and replaying the log suffix.
//
// # Directory layout
//
//	<dir>/wal.log        statement log (internal/wal framing)
//	<dir>/snap-<N>.snap  columnar snapshot, epoch N (magic + body + CRC32)
//	<dir>/MANIFEST       JSON: epoch, snapshot file, WAL offset, shards
//
// Every mutation of the layout is crash-atomic: snapshot and manifest are
// written to temp files, fsynced, then renamed into place (the manifest
// rename is the commit point), and the directory is fsynced after each
// rename. A crash between any two steps leaves the previous epoch fully
// intact.
//
// # Recovery sequence
//
//  1. Read MANIFEST; absent → cold start (empty engine, replay whole log).
//  2. Load and CRC-check the manifest's snapshot; restore the engine's
//     tables, columns and index structures from it.
//  3. Open the WAL (truncating any torn tail) and replay every record
//     after the manifest's offset through the engine's Replay* methods.
//
// A corrupt snapshot fails recovery loudly — the operator keeps the data
// directory — rather than silently serving partial data.
package snapshot

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"holistic/internal/costmodel"
	"holistic/internal/engine"
	"holistic/internal/wal"
)

const (
	walName      = "wal.log"
	manifestName = "MANIFEST"
)

// Manifest binds a snapshot epoch to the statement-log prefix it covers.
type Manifest struct {
	Epoch     uint64 `json:"epoch"`
	Snapshot  string `json:"snapshot"`
	WALOffset int64  `json:"wal_offset"`
	// Shards records the per-column shard count the snapshot was laid out
	// with; striping is positional, so a boot with a different -shards
	// must be refused rather than misroute every row.
	Shards int `json:"shards"`
	// Strategy is informational: the physical design is valid under any
	// strategy, so a changed flag warns rather than refuses.
	Strategy string `json:"strategy"`
}

// RecoveryInfo summarises what Open did, for the server's boot banner.
type RecoveryInfo struct {
	SnapshotLoaded bool
	Epoch          uint64
	WALOffset      int64 // offset replay started from
	Replayed       int   // WAL records replayed
	TornAt         int64 // logical offset of a truncated torn tail, -1 if clean
}

// Store is the engine's durability backend. It implements engine.WriteLog;
// attach with eng.SetWriteLog(store) after Open.
type Store struct {
	fs     wal.FS
	dir    string
	eng    *engine.Engine
	log    *wal.Log
	shards int

	// checkpointed is the WAL offset covered by the newest snapshot; the
	// gap to the log's end is the replay debt SnapshotScore ranks.
	checkpointed atomic.Int64
	epoch        atomic.Uint64

	// cpMu serializes checkpoints (idle action vs. shutdown).
	cpMu sync.Mutex
}

// Config configures Open.
type Config struct {
	// Policy is the WAL durability policy (fsync mode, retry/backoff).
	Policy wal.Policy
	// Shards must equal the engine's per-column shard count; it is
	// recorded in the manifest and validated against it on recovery.
	Shards int
	// Strategy is recorded in the manifest (informational).
	Strategy string
}

// Open recovers the data directory into eng (which must be empty) and
// returns the ready Store. The caller attaches it with eng.SetWriteLog and
// registers the checkpoint action. A missing directory is created; a
// missing manifest is a cold start.
func Open(fs wal.FS, dir string, eng *engine.Engine, cfg Config) (*Store, RecoveryInfo, error) {
	if fs == nil {
		fs = wal.OSFS{}
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, RecoveryInfo{}, err
	}
	s := &Store{fs: fs, dir: dir, eng: eng, shards: max(cfg.Shards, 1)}
	info := RecoveryInfo{TornAt: -1}

	man, err := s.readManifest()
	switch {
	case err == nil:
		if man.Shards != s.shards {
			return nil, info, fmt.Errorf("snapshot: data dir laid out with %d shards, config wants %d (row striping is positional; restart with -shards %d)", man.Shards, s.shards, man.Shards)
		}
		img, err := s.readFile(filepath.Join(dir, man.Snapshot))
		if err != nil {
			return nil, info, fmt.Errorf("snapshot: manifest names %s: %w", man.Snapshot, err)
		}
		st, err := DecodeState(img)
		if err != nil {
			return nil, info, err
		}
		if err := eng.RestoreState(st); err != nil {
			return nil, info, err
		}
		info.SnapshotLoaded = true
		info.Epoch = man.Epoch
		info.WALOffset = man.WALOffset
		s.epoch.Store(man.Epoch)
		s.checkpointed.Store(man.WALOffset)
	case errors.Is(err, os.ErrNotExist):
		// Cold start: no snapshot yet, the whole log replays into an
		// empty engine.
	default:
		return nil, info, err
	}

	log, tear, err := wal.Open(fs, filepath.Join(dir, walName), cfg.Policy)
	if err != nil {
		return nil, info, err
	}
	info.TornAt = tear
	replayed := 0
	err = log.ReplayFrom(info.WALOffset, func(end int64, payload []byte) error {
		rec, err := DecodeRecord(payload)
		if err != nil {
			return err
		}
		if err := s.apply(rec); err != nil {
			return fmt.Errorf("snapshot: replay at offset %d: %w", end, err)
		}
		replayed++
		return nil
	})
	if err != nil {
		log.Close()
		return nil, info, err
	}
	info.Replayed = replayed
	s.log = log
	return s, info, nil
}

// apply dispatches one replayed record to the engine.
func (s *Store) apply(r Record) error {
	switch r.Op {
	case opCreateTable:
		return s.eng.ReplayCreateTable(r.Table)
	case opAddColumn:
		return s.eng.ReplayAddColumn(r.Table, r.Col, r.Vals)
	case opInsert:
		return s.eng.ReplayInsert(r.Table, r.First, r.Rows)
	case opDelete:
		return s.eng.ReplayDeleteRows(r.Table, r.DelRows)
	default:
		return fmt.Errorf("snapshot: unknown op %d", r.Op)
	}
}

func (s *Store) readManifest() (Manifest, error) {
	b, err := s.readFile(filepath.Join(s.dir, manifestName))
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return Manifest{}, fmt.Errorf("snapshot: corrupt manifest: %w", err)
	}
	return m, nil
}

func (s *Store) readFile(path string) ([]byte, error) {
	f, err := s.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// writeFileAtomic writes data to name via temp file + fsync + rename +
// directory fsync — the crash-atomic publish every layout mutation uses.
func (s *Store) writeFileAtomic(name string, data []byte) error {
	tmp := filepath.Join(s.dir, name+".tmp")
	f, err := s.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if n, err := f.Write(data); err != nil || n != len(data) {
		f.Close()
		s.fs.Remove(tmp)
		if err == nil {
			err = io.ErrShortWrite
		}
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		s.fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		s.fs.Remove(tmp)
		return err
	}
	if err := s.fs.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		s.fs.Remove(tmp)
		return err
	}
	return s.fs.SyncDir(s.dir)
}

// Checkpoint captures a consistent engine state, publishes it atomically,
// and compacts the statement log. Crash-safe at every step: the manifest
// rename is the commit point, and a failure before it leaves the previous
// epoch in effect (the old snapshot and full log are untouched). Failure
// to compact the log afterwards is harmless — it is only larger than it
// needs to be. Returns the WAL bytes the checkpoint absorbed.
func (s *Store) Checkpoint() (int64, error) {
	s.cpMu.Lock()
	defer s.cpMu.Unlock()
	var cut int64
	st, err := s.eng.CaptureState(func() { cut = s.log.Size() })
	if err != nil {
		return 0, err
	}
	img := EncodeState(st)
	epoch := s.epoch.Load() + 1
	snapName := fmt.Sprintf("snap-%d.snap", epoch)
	if err := s.writeFileAtomic(snapName, img); err != nil {
		return 0, err
	}
	man, err := json.Marshal(Manifest{
		Epoch:     epoch,
		Snapshot:  snapName,
		WALOffset: cut,
		Shards:    s.shards,
		Strategy:  s.eng.Strategy().String(),
	})
	if err != nil {
		return 0, err
	}
	if err := s.writeFileAtomic(manifestName, man); err != nil {
		// The new snapshot file is orphaned but the old manifest still
		// points at a valid epoch; clean up and report.
		s.fs.Remove(filepath.Join(s.dir, snapName))
		return 0, err
	}
	prev := s.checkpointed.Swap(cut)
	old := s.epoch.Swap(epoch)
	if old > 0 {
		s.fs.Remove(filepath.Join(s.dir, fmt.Sprintf("snap-%d.snap", old)))
	}
	if err := s.log.Rebase(cut); err != nil && !errors.Is(err, wal.ErrDegraded) {
		// Non-fatal: the un-compacted log plus the new manifest still
		// recover correctly; the next checkpoint retries.
		return cut - prev, nil
	}
	return cut - prev, nil
}

// Epoch returns the newest committed snapshot epoch (0 before the first).
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// ReplayDebt returns the statement-log bytes not yet covered by a
// snapshot — what a crash right now would replay.
func (s *Store) ReplayDebt() int64 { return s.log.Size() - s.checkpointed.Load() }

// Degraded reports whether the statement log has failed persistently; the
// engine consults it (via engine.ReadOnly) to surface read-only mode.
func (s *Store) Degraded() bool { return s.log.Degraded() }

// Close checkpoints nothing; callers checkpoint explicitly first (see the
// server's shutdown ordering), then Close flushes and closes the log.
func (s *Store) Close() error { return s.log.Close() }

// append encodes and logs one record, translating the WAL's sticky
// degraded state into the engine's read-only sentinel so servers surface a
// structured error.
func (s *Store) append(r Record) error {
	_, err := s.log.Append(EncodeRecord(r))
	if err != nil && errors.Is(err, wal.ErrDegraded) {
		return fmt.Errorf("%w: %w", engine.ErrReadOnly, err)
	}
	return err
}

// LogCreateTable implements engine.WriteLog.
func (s *Store) LogCreateTable(table string) error {
	return s.append(Record{Op: opCreateTable, Table: table})
}

// LogAddColumn implements engine.WriteLog.
func (s *Store) LogAddColumn(table, col string, vals []int64) error {
	return s.append(Record{Op: opAddColumn, Table: table, Col: col, Vals: vals})
}

// LogInsert implements engine.WriteLog.
func (s *Store) LogInsert(table string, first uint32, rows [][]int64) error {
	return s.append(Record{Op: opInsert, Table: table, First: first, Rows: rows})
}

// LogDelete implements engine.WriteLog.
func (s *Store) LogDelete(table string, rows []uint32) error {
	return s.append(Record{Op: opDelete, Table: table, DelRows: rows})
}

// CheckpointAction adapts the Store to the tuner's auction (core.AuxAction
// via engine.RegisterAux): the checkpoint bids with costmodel.SnapshotScore
// on its replay debt and runs on the idle pool, load-gated like any
// refinement, so checkpoints never ride a query's critical path.
type CheckpointAction struct {
	Store *Store
	// Logf, when set, receives checkpoint failures (there is no caller to
	// return them to on the idle path).
	Logf func(format string, args ...any)
}

// Name implements core.AuxAction.
func (a *CheckpointAction) Name() string { return "aux:checkpoint" }

// Score implements core.AuxAction.
func (a *CheckpointAction) Score() float64 {
	if a.Store.Degraded() {
		// A degraded log admits no writes, so the debt is frozen;
		// checkpointing now would only churn disk on a failing device.
		return 0
	}
	return costmodel.SnapshotScore(a.Store.ReplayDebt())
}

// Run implements core.AuxAction; the work reported is the WAL bytes the
// checkpoint absorbed.
func (a *CheckpointAction) Run() int {
	n, err := a.Store.Checkpoint()
	if err != nil {
		if a.Logf != nil {
			a.Logf("checkpoint failed: %v", err)
		}
		return 0
	}
	return int(n)
}
