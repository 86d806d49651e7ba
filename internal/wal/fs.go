package wal

import (
	"io"
	"os"
	"path/filepath"
)

// FS is the filesystem seam every durability-layer I/O goes through — the
// write-ahead log, the columnar snapshots and their manifests all take an FS
// so tests can inject faults (short writes, fsync errors, rename failures,
// bit flips) without touching the real disk. OSFS is the production
// implementation; FaultFS (fault.go) is the injectable one.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename atomically replaces newpath with oldpath (POSIX rename).
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory and its parents.
	MkdirAll(path string, perm os.FileMode) error
	// ReadDir lists a directory.
	ReadDir(name string) ([]os.DirEntry, error)
	// Stat describes a file.
	Stat(name string) (os.FileInfo, error)
	// SyncDir fsyncs a directory, making renames within it durable.
	SyncDir(name string) error
}

// File is the subset of *os.File the durability layer uses.
type File interface {
	io.Reader
	io.Writer
	// WriterAt writes at an offset without moving the file position: the
	// log appends with it.
	io.WriterAt
	io.Closer
	io.Seeker
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	// Truncate cuts the file to size bytes.
	Truncate(size int64) error
}

// OSFS is the real filesystem.
type OSFS struct{}

// OpenFile implements FS.
func (OSFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Rename implements FS.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// MkdirAll implements FS.
func (OSFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// ReadDir implements FS.
func (OSFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

// Stat implements FS.
func (OSFS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

// SyncDir implements FS. Some filesystems refuse directory fsync; that is
// not a durability failure worth degrading over, so errors from the sync
// itself are swallowed (opening the directory must still succeed).
func (OSFS) SyncDir(name string) error {
	d, err := os.Open(filepath.Clean(name))
	if err != nil {
		return err
	}
	defer d.Close()
	d.Sync()
	return nil
}
