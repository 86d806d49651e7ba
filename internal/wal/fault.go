package wal

import (
	"os"
	"sync"
)

// FaultFS wraps an inner FS and injects failures at the seam the durability
// layer does all its I/O through. Each knob is a countdown: 0 means "never
// fire", n > 0 means "the n-th matching operation from now fails" (and, for
// sticky modes, every one after it). Tests arm exactly the fault they are
// proving recovery from; everything else passes through.
type FaultFS struct {
	Inner FS

	mu sync.Mutex
	// writesUntilErr: the n-th Write or WriteAt call across all opened
	// files fails with WriteErr (sticky if StickyWrites).
	writesUntilErr int
	// shortWriteAt: the n-th write writes only half its buffer and
	// reports success for the truncated length — a torn write.
	shortWriteAt int
	// syncsUntilErr: the n-th Sync call fails with SyncErr (sticky if
	// StickySyncs).
	syncsUntilErr int
	// renamesUntilErr: the n-th Rename fails with RenameErr.
	renamesUntilErr int
	// flipBitAt: the n-th write has one bit of its payload flipped
	// before reaching the inner file — silent corruption.
	flipBitAt int

	stickyWrites bool
	stickySyncs  bool

	writeErr  error
	syncErr   error
	renameErr error

	writes  int
	syncs   int
	renames int
	// injected counts the faults fired so far, of every kind.
	injected int
}

// NewFaultFS wraps inner with no faults armed.
func NewFaultFS(inner FS) *FaultFS { return &FaultFS{Inner: inner} }

// FailWrites arms a write failure: the n-th Write or WriteAt from now
// returns err.
// sticky makes every later write fail too (a dead disk rather than a
// glitch).
func (f *FaultFS) FailWrites(n int, err error, sticky bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes = 0
	f.writesUntilErr = n
	f.writeErr = err
	f.stickyWrites = sticky
}

// ShortWrite arms a torn write: the n-th write from now persists only half
// its buffer yet reports the short length with a nil error.
func (f *FaultFS) ShortWrite(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes = 0
	f.shortWriteAt = n
}

// FlipBit arms silent corruption: the n-th write from now has one payload
// bit inverted before it reaches the disk.
func (f *FaultFS) FlipBit(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes = 0
	f.flipBitAt = n
}

// FailSyncs arms an fsync failure on the n-th Sync from now.
func (f *FaultFS) FailSyncs(n int, err error, sticky bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncs = 0
	f.syncsUntilErr = n
	f.syncErr = err
	f.stickySyncs = sticky
}

// FailRenames arms a rename failure on the n-th Rename from now.
func (f *FaultFS) FailRenames(n int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.renames = 0
	f.renamesUntilErr = n
	f.renameErr = err
}

// Injected returns how many faults have fired since the FaultFS was made:
// failed, torn or corrupted writes, failed syncs and failed renames. A test
// asserts it to prove the fault it armed was met.
func (f *FaultFS) Injected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// Clear disarms every fault.
func (f *FaultFS) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writesUntilErr, f.shortWriteAt, f.flipBitAt = 0, 0, 0
	f.syncsUntilErr, f.renamesUntilErr = 0, 0
	f.stickyWrites, f.stickySyncs = false, false
}

// writeFault decides what happens to one Write of len n: the possibly
// mutated length to pass through, an optional byte index to flip, and an
// error to return instead of writing.
func (f *FaultFS) writeFault(n int) (writeLen int, flipAt int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes++
	if f.writesUntilErr > 0 && (f.writes == f.writesUntilErr || (f.stickyWrites && f.writes > f.writesUntilErr)) {
		f.injected++
		return 0, -1, f.writeErr
	}
	if f.shortWriteAt > 0 && f.writes == f.shortWriteAt {
		f.injected++
		return n / 2, -1, nil
	}
	if f.flipBitAt > 0 && f.writes == f.flipBitAt && n > 0 {
		f.injected++
		return n, n / 2, nil
	}
	return n, -1, nil
}

func (f *FaultFS) syncFault() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncs++
	if f.syncsUntilErr > 0 && (f.syncs == f.syncsUntilErr || (f.stickySyncs && f.syncs > f.syncsUntilErr)) {
		f.injected++
		return f.syncErr
	}
	return nil
}

// OpenFile implements FS; the returned file routes writes and syncs through
// the fault knobs.
func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	inner, err := f.Inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: inner, fs: f}, nil
}

// Rename implements FS.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	f.renames++
	fail := f.renamesUntilErr > 0 && f.renames == f.renamesUntilErr
	if fail {
		f.injected++
	}
	err := f.renameErr
	f.mu.Unlock()
	if fail {
		return err
	}
	return f.Inner.Rename(oldpath, newpath)
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error { return f.Inner.Remove(name) }

// MkdirAll implements FS.
func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	return f.Inner.MkdirAll(path, perm)
}

// ReadDir implements FS.
func (f *FaultFS) ReadDir(name string) ([]os.DirEntry, error) { return f.Inner.ReadDir(name) }

// Stat implements FS.
func (f *FaultFS) Stat(name string) (os.FileInfo, error) { return f.Inner.Stat(name) }

// SyncDir implements FS.
func (f *FaultFS) SyncDir(name string) error { return f.Inner.SyncDir(name) }

type faultFile struct {
	File
	fs *FaultFS
}

func (ff *faultFile) Write(p []byte) (int, error) { return ff.write(p, ff.File.Write) }

func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	return ff.write(p, func(b []byte) (int, error) { return ff.File.WriteAt(b, off) })
}

// write passes p to the inner file's write through the write knobs: Write
// and WriteAt count as one sequence of writes.
func (ff *faultFile) write(p []byte, inner func([]byte) (int, error)) (int, error) {
	writeLen, flipAt, err := ff.fs.writeFault(len(p))
	if err != nil {
		return 0, err
	}
	if flipAt >= 0 && flipAt < len(p) {
		mut := make([]byte, len(p))
		copy(mut, p)
		mut[flipAt] ^= 0x10
		return inner(mut)
	}
	// A torn write reports the short count with no error, exactly like a
	// crash mid-write followed by an optimistic caller.
	return inner(p[:writeLen])
}

func (ff *faultFile) Sync() error {
	if err := ff.fs.syncFault(); err != nil {
		return err
	}
	return ff.File.Sync()
}
