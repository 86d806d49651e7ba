// Package wal implements the write-ahead statement log of the durability
// layer: an append-only file of CRC32-framed, length-prefixed records with a
// configurable fsync policy, torn-tail recovery, and a sticky degraded mode
// for persistent I/O failures.
//
// # Frame format
//
// Every record is one frame:
//
//	[payload length  uint32 LE]
//	[CRC32 (IEEE) of payload  uint32 LE]
//	[payload bytes]
//
// The log is payload-agnostic — internal/snapshot defines the statement
// record encoding. Recovery scans frames from the start and truncates the
// file at the first bad frame (short header, short payload, CRC mismatch,
// or an implausible length), which makes a torn tail after a crash
// harmless: everything before the tear replays, the tear itself is cut off,
// and the next append continues from the truncation point. A frame is never
// returned unless its CRC matches, so corrupted bytes can not masquerade as
// a record that was written.
//
// # Offsets
//
// Record offsets are logical, monotonic across the log's whole life: the
// file carries a small header recording the logical offset of its first
// byte, and a checkpoint rewrites the log to a file that holds only the
// records after the checkpoint's offset and whose base is that offset (see
// Rebase). A snapshot manifest binds a snapshot to
// the logical offset it covers; replay starts at that offset regardless of
// how often the log has been compacted since.
//
// # Failure handling
//
// Append retries transient I/O errors DefaultRetries times with exponential
// backoff from DefaultBackoff, truncating any partial frame before each retry
// so a failed attempt can never corrupt the tail. When retries are exhausted
// the log flips to a sticky degraded state: every further Append fails fast
// with ErrDegraded and the owner is expected to stop accepting writes
// (read-only mode). Reads are never affected.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"
)

// Magic identifies a WAL file; the trailing byte versions the format.
var Magic = [8]byte{'H', 'O', 'L', 'W', 'A', 'L', '0', '1'}

// headerSize is the fixed file header: magic plus the base logical offset.
const headerSize = 16

// FrameHeaderSize is the per-record header: payload length plus CRC32.
const FrameHeaderSize = 8

// MaxFrame caps one payload. Statement records are small; the largest
// legitimate record is a preload column (8 bytes per value), so 1 GiB is
// far beyond anything real and a length above it is treated as corruption.
const MaxFrame = 1 << 30

// SyncPolicy selects when Append makes records durable.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged write is on
	// stable storage. The crash-recovery oracle runs under this policy.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background ticker (DefaultSyncInterval): a
	// crash loses at most the last interval's records.
	SyncInterval
	// SyncOff never fsyncs explicitly: durability is whatever the OS page
	// cache survives. For benchmarks and tests.
	SyncOff
)

// String returns the policy's flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("syncpolicy(%d)", int(p))
	}
}

// ParseSyncPolicy maps the -fsync flag spellings onto a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always|interval|off)", s)
	}
}

// Policy configures a Log's durability behaviour.
type Policy struct {
	// Sync selects the fsync policy.
	Sync SyncPolicy
}

const (
	// DefaultSyncInterval is the background fsync period under SyncInterval.
	DefaultSyncInterval = 50 * time.Millisecond
	// DefaultRetries is how many times a failed append I/O is retried before
	// the log degrades.
	DefaultRetries = 3
	// DefaultBackoff is the first retry's delay; it doubles per attempt.
	DefaultBackoff = time.Millisecond
)

// ErrDegraded is returned by Append once persistent I/O failures have
// flipped the log into its sticky degraded state. The owner should reject
// further writes (read-only mode); reads and recovery are unaffected.
var ErrDegraded = errors.New("wal: log degraded after persistent I/O failure")

// Log is an append-only CRC-framed record log. Append and Sync are safe for
// concurrent use; Close must not race Append.
type Log struct {
	fs     FS
	path   string
	policy Policy

	mu       sync.Mutex
	f        File
	base     int64 // logical offset of the file's first record byte
	size     int64 // logical end offset (base + record bytes in the file)
	degraded bool

	stop chan struct{} // interval-sync ticker shutdown
	done chan struct{}
}

// Open opens (creating if absent) the log at path, recovers its tail —
// truncating at the first bad frame — and positions it for appending. The
// returned tear offset is the logical offset where a torn tail was cut, or
// -1 if the log was clean.
func Open(fs FS, path string, policy Policy) (l *Log, tear int64, err error) {
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, -1, err
	}
	base, validEnd, tear, err := recoverFile(f)
	if err != nil {
		f.Close()
		return nil, -1, err
	}
	l = &Log{fs: fs, path: path, policy: policy, f: f, base: base, size: base + validEnd - headerSize}
	if policy.Sync == SyncInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.syncLoop()
	}
	return l, tear, nil
}

// recoverFile validates the header (writing a fresh one into an empty file),
// scans frames, truncates at the first bad one, and leaves the file
// positioned at its end. It returns the base logical offset, the valid file
// length, and the logical tear offset (-1 if clean).
func recoverFile(f File) (base, validEnd, tear int64, err error) {
	fileLen, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, 0, -1, err
	}
	if fileLen < headerSize {
		// Fresh (or torn-before-header) file: write a zero-base header.
		if err := f.Truncate(0); err != nil {
			return 0, 0, -1, err
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return 0, 0, -1, err
		}
		var hdr [headerSize]byte
		copy(hdr[:], Magic[:])
		if _, err := f.Write(hdr[:]); err != nil {
			return 0, 0, -1, err
		}
		t := int64(-1)
		if fileLen > 0 {
			t = 0
		}
		return 0, headerSize, t, nil
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, -1, err
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, 0, -1, err
	}
	if [8]byte(hdr[:8]) != Magic {
		return 0, 0, -1, fmt.Errorf("wal: %w", ErrBadMagic)
	}
	base = int64(binary.LittleEndian.Uint64(hdr[8:]))
	body := make([]byte, fileLen-headerSize)
	if _, err := io.ReadFull(f, body); err != nil {
		return 0, 0, -1, err
	}
	_, valid := DecodeAll(body)
	validEnd = headerSize + valid
	tear = -1
	if validEnd < fileLen {
		tear = base + valid
		if err := f.Truncate(validEnd); err != nil {
			return 0, 0, -1, err
		}
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		return 0, 0, -1, err
	}
	return base, validEnd, tear, nil
}

// ErrBadMagic marks a file that is not a WAL (or a torn/corrupted header).
var ErrBadMagic = errors.New("bad magic")

// DecodeAll scans frames in body and returns every intact payload plus the
// number of bytes the intact prefix occupies. It stops at the first bad
// frame (short header, short payload, implausible length, CRC mismatch) and
// never panics on arbitrary input; a payload is only returned if its CRC
// matches, so no record that was not written can be fabricated. The torn
// tail after the valid prefix is the caller's to truncate.
func DecodeAll(body []byte) (payloads [][]byte, valid int64) {
	off := 0
	for {
		if len(body)-off < FrameHeaderSize {
			return payloads, int64(off)
		}
		n := int(binary.LittleEndian.Uint32(body[off:]))
		crc := binary.LittleEndian.Uint32(body[off+4:])
		if n > MaxFrame || n > len(body)-off-FrameHeaderSize {
			return payloads, int64(off)
		}
		payload := body[off+FrameHeaderSize : off+FrameHeaderSize+n]
		if crc32.ChecksumIEEE(payload) != crc {
			return payloads, int64(off)
		}
		payloads = append(payloads, payload)
		off += FrameHeaderSize + n
	}
}

// EncodeFrame appends one frame for payload to dst and returns it.
func EncodeFrame(dst, payload []byte) []byte {
	var hdr [FrameHeaderSize]byte
	putFrameHeader(hdr[:], payload)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// putFrameHeader writes payload's length and CRC into hdr.
func putFrameHeader(hdr, payload []byte) {
	binary.LittleEndian.PutUint32(hdr, uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
}

// Size returns the log's logical end offset: the offset the next record
// will end at, and the offset a snapshot taken now should bind to.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Degraded reports whether the log has given up after persistent failures.
func (l *Log) Degraded() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.degraded
}

// Append writes one record and returns the logical offset its frame ends
// at. It copies payload behind a frame header; a caller that can leave
// FrameHeaderSize bytes of headroom calls AppendFrame and saves the copy.
func (l *Log) Append(payload []byte) (off int64, err error) {
	frame := make([]byte, FrameHeaderSize+len(payload))
	copy(frame[FrameHeaderSize:], payload)
	return l.AppendFrame(frame)
}

// AppendFrame writes the record frame[FrameHeaderSize:] and returns the
// logical offset its frame ends at. It fills in the length and CRC in
// frame's first FrameHeaderSize bytes, so the record is written from the
// caller's buffer without a copy. Under SyncAlways the record is fsynced
// before AppendFrame returns. Transient I/O errors are retried with
// exponential backoff; when retries are exhausted the log degrades and
// this — and every later — append returns ErrDegraded. A failed attempt
// truncates its partial frame, so the on-disk tail stays valid whether or
// not the append eventually succeeds.
func (l *Log) AppendFrame(frame []byte) (off int64, err error) {
	if n := len(frame) - FrameHeaderSize; n < 0 || n > MaxFrame {
		return 0, fmt.Errorf("wal: record of %d bytes does not fit a frame", n)
	}
	putFrameHeader(frame, frame[FrameHeaderSize:])
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.degraded {
		return 0, ErrDegraded
	}
	backoff := DefaultBackoff
	for attempt := 0; ; attempt++ {
		err = l.writeFrameLocked(frame)
		if err == nil {
			l.size += int64(len(frame))
			return l.size, nil
		}
		if attempt >= DefaultRetries {
			l.degraded = true
			return 0, fmt.Errorf("%w (cause: %v)", ErrDegraded, err)
		}
		// Transient until proven otherwise: back off (outside no locks but
		// ours — appenders simply queue) and retry from a clean tail.
		time.Sleep(backoff)
		backoff *= 2
	}
}

// writeFrameLocked writes one frame at the current tail, restoring the tail
// on any failure so a partial frame never survives.
func (l *Log) writeFrameLocked(frame []byte) error {
	fileEnd := headerSize + (l.size - l.base)
	if _, err := l.f.Seek(fileEnd, io.SeekStart); err != nil {
		return err
	}
	if n, err := l.f.Write(frame); err != nil || n != len(frame) {
		// Truncate the partial frame; if even that fails the next recovery
		// scan cuts it (the CRC cannot match a half-written payload).
		l.f.Truncate(fileEnd)
		if err == nil {
			err = io.ErrShortWrite
		}
		return err
	}
	if l.policy.Sync == SyncAlways {
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Sync flushes appended records to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	return l.f.Sync()
}

// syncLoop is the SyncInterval background flusher.
func (l *Log) syncLoop() {
	defer close(l.done)
	t := time.NewTicker(DefaultSyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.Sync()
		case <-l.stop:
			return
		}
	}
}

// ReplayFrom invokes fn for every record at logical offset >= from, in
// order, passing each record's end offset and payload. The payload slice is
// only valid during the call.
func (l *Log) ReplayFrom(from int64, fn func(end int64, payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Seek(headerSize, io.SeekStart); err != nil {
		return err
	}
	body := make([]byte, l.size-l.base)
	if _, err := io.ReadFull(l.f, body); err != nil {
		return err
	}
	payloads, _ := DecodeAll(body)
	off := l.base
	for _, p := range payloads {
		off += int64(FrameHeaderSize + len(p))
		if off <= from {
			continue
		}
		if err := fn(off, p); err != nil {
			return err
		}
	}
	// Leave the file positioned at the tail for the next append.
	_, err := l.f.Seek(headerSize+(l.size-l.base), io.SeekStart)
	return err
}

// Rebase compacts the log after a checkpoint: records ending at logical
// offsets <= upTo are covered by the snapshot, so the file is atomically
// replaced by one whose base is upTo and whose body holds the records
// appended after it, each at its old logical offset. That suffix is often
// not empty: Store.Checkpoint drops the table locks once CaptureState has
// read upTo, so every write made while the snapshot is encoded and synced
// lands in it.
// Failure to rebase is not a durability failure — the old, larger file
// remains fully valid — so errors are returned for logging but do not
// degrade the log.
func (l *Log) Rebase(upTo int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.degraded {
		return ErrDegraded
	}
	// Collect the suffix appended after upTo.
	var suffix []byte
	if l.size > upTo {
		if _, err := l.f.Seek(headerSize, io.SeekStart); err != nil {
			return err
		}
		body := make([]byte, l.size-l.base)
		if _, err := io.ReadFull(l.f, body); err != nil {
			return err
		}
		payloads, _ := DecodeAll(body)
		off := l.base
		for _, p := range payloads {
			end := off + int64(FrameHeaderSize+len(p))
			if end > upTo {
				suffix = EncodeFrame(suffix, p)
			}
			off = end
		}
	}
	newBase := l.size - int64(len(suffix))
	tmp := l.path + ".tmp"
	nf, err := l.fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var hdr [headerSize]byte
	copy(hdr[:], Magic[:])
	binary.LittleEndian.PutUint64(hdr[8:], uint64(newBase))
	if _, err := nf.Write(hdr[:]); err != nil {
		nf.Close()
		l.fs.Remove(tmp)
		return err
	}
	if len(suffix) > 0 {
		if _, err := nf.Write(suffix); err != nil {
			nf.Close()
			l.fs.Remove(tmp)
			return err
		}
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		l.fs.Remove(tmp)
		return err
	}
	if err := l.fs.Rename(tmp, l.path); err != nil {
		nf.Close()
		l.fs.Remove(tmp)
		return err
	}
	old := l.f
	l.f = nf
	l.base = newBase
	if _, err := l.f.Seek(headerSize+(l.size-l.base), io.SeekStart); err != nil {
		return err
	}
	old.Close()
	return nil
}

// Close flushes and closes the log. Safe to call on a degraded log.
func (l *Log) Close() error {
	if l.stop != nil {
		close(l.stop)
		<-l.done
		l.stop = nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
