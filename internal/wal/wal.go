// Package wal implements the write-ahead statement log of the durability
// layer: an append-only file of CRC32-framed, length-prefixed records with a
// configurable fsync policy, group commit, torn-tail recovery, and a sticky
// degraded mode for persistent I/O failures.
//
// # Frame format
//
// Every record is one frame:
//
//	[payload length  uint32 LE]
//	[CRC32 (IEEE) of the length field and the payload  uint32 LE]
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
// The file is kept up to PreExtend bytes longer than its records (see
// "Commit"). Because the CRC covers the length field, the all-zero bytes
// there never decode as a frame: a scan ends at them, and recovery reports a
// tear only when something other than zeros follows the last frame. Files of
// the previous format, HOLWAL01, whose CRC covered the payload alone, still
// read; Open rewrites one in the current format before appending to it.
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
// # Commit
//
// Appending and making durable are two calls. AppendFrame writes a frame at
// the tail under the log's mutex — with WriteAt at the tail's offset, so an
// append makes no Seek and one write per piece of the record — and returns
// the offset it ends at;
// WaitDurable(end) returns once every record up to end is on stable storage.
// The log keeps one watermark, the durable offset. A waiter it does not yet
// cover reads the log's size, fsyncs at once, outside the mutex, and on
// success advances the watermark to the size it read: one fsync covers every
// record appended before it started, so concurrent writers share fsyncs
// without a dedicated syncer goroutine and without waiting for each other's.
// The file is extended PreExtend bytes past its tail with Truncate whenever
// an append would outgrow it, and trimmed back on Close, so a commit's fsync
// seldom carries a change of the file's size.
//
// # Failure handling
//
// Appends and fsyncs retry transient I/O errors DefaultRetries times with
// exponential backoff from DefaultBackoff, sleeping outside the mutex; a
// failed write truncates any partial frame before its retry so a failed
// attempt can never corrupt the tail. When retries are exhausted the log
// flips to a sticky degraded state: every further append and wait fails fast
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
	"path/filepath"
	"sync"
	"time"
)

// Magic identifies a WAL file; the trailing byte versions the format.
var Magic = [8]byte{'H', 'O', 'L', 'W', 'A', 'L', '0', '2'}

// magicV1 is the previous format: the frame CRC covers the payload only.
var magicV1 = [8]byte{'H', 'O', 'L', 'W', 'A', 'L', '0', '1'}

// headerSize is the fixed file header: magic plus the base logical offset.
const headerSize = 16

// FrameHeaderSize is the per-record header: payload length plus CRC32.
const FrameHeaderSize = 8

// MaxFrame caps one payload. Statement records are small; the largest
// legitimate record is a preload column (8 bytes per value), so 1 GiB is
// far beyond anything real and a length above it is treated as corruption.
const MaxFrame = 1 << 30

// PreExtend is how far past its tail an append extends the file when a frame
// does not fit in it: fsyncs of the frames that land inside the extension do
// not change the file's size.
const PreExtend = 1 << 20

// SyncPolicy selects when an append is durable.
type SyncPolicy int

const (
	// SyncAlways makes WaitDurable fsync: an acknowledged write is on stable
	// storage. The crash-recovery oracle runs under this policy.
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
	// DefaultRetries is how many times a failed write or fsync is retried
	// before the log degrades.
	DefaultRetries = 3
	// DefaultBackoff is the first retry's delay; it doubles per attempt.
	DefaultBackoff = time.Millisecond
)

// sleep is the retry backoff's clock; tests replace it.
var sleep = time.Sleep

// ErrDegraded is returned by Append once persistent I/O failures have
// flipped the log into its sticky degraded state. The owner should reject
// further writes (read-only mode); reads and recovery are unaffected.
var ErrDegraded = errors.New("wal: log degraded after persistent I/O failure")

// Stats counts a log's traffic since Open.
type Stats struct {
	// Records is the number of frames appended.
	Records int64
	// Fsyncs is the number of successful fsyncs of the log file.
	Fsyncs int64
	// DurableLag is the bytes appended but not yet known to be on stable
	// storage: the log's end offset minus its durable watermark.
	DurableLag int64
}

// Log is an append-only CRC-framed record log. AppendFrame, Append,
// WaitDurable, Sync and Rebase are safe for concurrent use; Close must not
// race them.
type Log struct {
	fs     FS
	path   string
	policy Policy

	mu       sync.Mutex
	f        File
	base     int64 // logical offset of the file's first record byte
	size     int64 // logical end offset (base + record bytes in the file)
	durable  int64 // every record ending at or below it is on stable storage
	fileLen  int64 // the file's length: its records plus any zero extension
	degraded bool
	records  int64
	fsyncs   int64

	stop chan struct{} // interval-sync ticker shutdown
	done chan struct{}
}

// Open opens (creating if absent) the log at path, recovers its tail —
// truncating at the first bad frame — and positions it for appending. The
// returned tear offset is the logical offset where a torn tail was cut, or
// -1 if the log was clean (zeros after the last frame are the extension an
// append left, not a tear).
func Open(fs FS, path string, policy Policy) (l *Log, tear int64, err error) {
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, -1, err
	}
	base, validEnd, tear, v1, err := recoverFile(f)
	if err != nil {
		f.Close()
		return nil, -1, err
	}
	size := base + validEnd - headerSize
	l = &Log{fs: fs, path: path, policy: policy, f: f, base: base, size: size, durable: size, fileLen: validEnd}
	if v1 {
		if err := l.upgrade(); err != nil {
			l.f.Close()
			return nil, -1, err
		}
	}
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
// length, the logical tear offset (-1 if clean) and whether the file is in
// the HOLWAL01 format.
func recoverFile(f File) (base, validEnd, tear int64, v1 bool, err error) {
	fileLen, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, 0, -1, false, err
	}
	if fileLen < headerSize {
		// Fresh (or torn-before-header) file: write a zero-base header.
		if err := f.Truncate(0); err != nil {
			return 0, 0, -1, false, err
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return 0, 0, -1, false, err
		}
		var hdr [headerSize]byte
		copy(hdr[:], Magic[:])
		if _, err := f.Write(hdr[:]); err != nil {
			return 0, 0, -1, false, err
		}
		t := int64(-1)
		if fileLen > 0 {
			t = 0
		}
		return 0, headerSize, t, false, nil
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, -1, false, err
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, 0, -1, false, err
	}
	switch [8]byte(hdr[:8]) {
	case Magic:
	case magicV1:
		v1 = true
	default:
		return 0, 0, -1, false, fmt.Errorf("wal: %w", ErrBadMagic)
	}
	base = int64(binary.LittleEndian.Uint64(hdr[8:]))
	body := make([]byte, fileLen-headerSize)
	if _, err := io.ReadFull(f, body); err != nil {
		return 0, 0, -1, false, err
	}
	_, valid := decodeFrames(body, v1)
	validEnd = headerSize + valid
	tear = -1
	if validEnd < fileLen {
		if !allZero(body[valid:]) {
			tear = base + valid
		}
		if err := f.Truncate(validEnd); err != nil {
			return 0, 0, -1, false, err
		}
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		return 0, 0, -1, false, err
	}
	return base, validEnd, tear, v1, nil
}

// allZero reports whether b holds only zero bytes.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
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
	return decodeFrames(body, false)
}

// decodeFrames is DecodeAll for either format: v1 frames check their CRC
// against the payload alone.
func decodeFrames(body []byte, v1 bool) (payloads [][]byte, valid int64) {
	off := 0
	for {
		if len(body)-off < FrameHeaderSize {
			return payloads, int64(off)
		}
		hdr := body[off : off+FrameHeaderSize]
		n := int(binary.LittleEndian.Uint32(hdr))
		if n > MaxFrame || n > len(body)-off-FrameHeaderSize {
			return payloads, int64(off)
		}
		payload := body[off+FrameHeaderSize : off+FrameHeaderSize+n]
		want := frameCRC(hdr, payload)
		if v1 {
			want = crc32.ChecksumIEEE(payload)
		}
		if binary.LittleEndian.Uint32(hdr[4:]) != want {
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

// putFrameHeader writes payload's length and the frame's CRC into hdr.
func putFrameHeader(hdr, payload []byte) {
	binary.LittleEndian.PutUint32(hdr, uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], frameCRC(hdr, payload))
}

// frameCRC is the CRC32 of a frame's length field followed by its payload.
func frameCRC(hdr, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(hdr[:4]), crc32.IEEETable, payload)
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

// Stats returns the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Records: l.records, Fsyncs: l.fsyncs, DurableLag: l.size - l.durable}
}

// Append writes one record, waits until it is durable under the log's
// policy (WaitDurable) and returns the logical offset its frame ends at. It
// copies payload behind a frame header, so the frame is one write; a caller
// that can leave FrameHeaderSize bytes of headroom calls AppendFrame and
// saves the copy.
func (l *Log) Append(payload []byte) (off int64, err error) {
	frame := make([]byte, FrameHeaderSize+len(payload))
	copy(frame[FrameHeaderSize:], payload)
	if off, err = l.AppendFrame(frame, nil); err != nil {
		return 0, err
	}
	return off, l.WaitDurable(off)
}

// AppendFrame writes the record head[FrameHeaderSize:] followed by body at
// the tail and returns the logical offset its frame ends at; it does not
// wait for the record to be durable (WaitDurable). It fills in the length
// and CRC in head's first FrameHeaderSize bytes, so the record is written
// from the caller's memory without a copy: head in one write or, when body
// is not empty, body and then head, the body's CRC running while the body
// is written. Once AppendFrame returns, neither slice is read again.
// Transient I/O errors are retried with exponential backoff, sleeping
// without the log's mutex; when retries are exhausted the log degrades and
// this — and every later — append returns ErrDegraded. A failed attempt
// truncates its partial frame, so the on-disk tail stays valid whether or
// not the append eventually succeeds.
func (l *Log) AppendFrame(head, body []byte) (off int64, err error) {
	n := len(head) - FrameHeaderSize + len(body)
	if len(head) < FrameHeaderSize || n > MaxFrame {
		return 0, fmt.Errorf("wal: record of %d bytes does not fit a frame", n)
	}
	binary.LittleEndian.PutUint32(head, uint32(n))
	crc := frameCRC(head, head[FrameHeaderSize:])
	seal := func() { binary.LittleEndian.PutUint32(head[4:], crc) }
	if len(body) > 0 {
		sum := make(chan uint32, 1)
		go func() { sum <- crc32.Update(crc, crc32.IEEETable, body) }()
		seal = sync.OnceFunc(func() { binary.LittleEndian.PutUint32(head[4:], <-sum) })
		defer seal() // the CRC's reads of body end before the return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	backoff := DefaultBackoff
	for attempt := 0; ; attempt++ {
		if l.degraded {
			return 0, ErrDegraded
		}
		err = l.writeFrameLocked(head, body, seal)
		if err == nil {
			l.size += int64(len(head) + len(body))
			l.records++
			return l.size, nil
		}
		if attempt >= DefaultRetries {
			l.degraded = true
			return 0, fmt.Errorf("%w (cause: %v)", ErrDegraded, err)
		}
		// Transient until proven otherwise: back off without the mutex, so
		// other appenders and syncers go on, and retry at the tail then.
		l.mu.Unlock()
		sleep(backoff)
		l.mu.Lock()
		backoff *= 2
	}
}

// writeFrameLocked writes one frame at the current tail, first extending
// the file PreExtend bytes past the frame if it does not fit, and restores
// the tail on any failure so a partial frame never survives. It writes
// body, then seals head (seal fills in its CRC) and writes it.
func (l *Log) writeFrameLocked(head, body []byte, seal func()) error {
	fileEnd := headerSize + (l.size - l.base)
	if need := fileEnd + int64(len(head)+len(body)); need > l.fileLen {
		if err := l.f.Truncate(need + PreExtend); err != nil {
			return err
		}
		l.fileLen = need + PreExtend
	}
	err := writeAt(l.f, body, fileEnd+int64(len(head)))
	if err == nil {
		seal()
		err = writeAt(l.f, head, fileEnd)
	}
	if err != nil {
		// Cut the partial frame off (the next attempt extends the file
		// again, with zeros); if even that fails the next recovery scan cuts
		// it (the CRC cannot match a half-written frame).
		if l.f.Truncate(fileEnd) == nil {
			l.fileLen = fileEnd
		}
		return err
	}
	return nil
}

// writeAt writes b whole to f at off; an empty b is no write at all.
func writeAt(f File, b []byte, off int64) error {
	if len(b) == 0 {
		return nil
	}
	n, err := f.WriteAt(b, off)
	if err == nil && n != len(b) {
		err = io.ErrShortWrite
	}
	return err
}

// WaitDurable returns once every record ending at or before end is durable
// under the log's policy: under SyncAlways it is on stable storage, under
// SyncInterval and SyncOff WaitDurable returns at once. A waiter the durable
// watermark does not cover fsyncs itself, outside the log's mutex, and
// whatever fsync covers end first releases it (see "Commit"). A failed fsync
// is retried like a failed write, and exhausting the retries degrades the
// log: the wait returns ErrDegraded, and so does every later one that still
// needs an fsync.
func (l *Log) WaitDurable(end int64) error {
	if l.policy.Sync != SyncAlways {
		return nil
	}
	return l.syncTo(end)
}

// syncTo fsyncs until the durable watermark reaches end.
func (l *Log) syncTo(end int64) error {
	backoff := DefaultBackoff
	for failures := 0; ; {
		l.mu.Lock()
		if l.durable >= end || l.f == nil {
			l.mu.Unlock()
			return nil
		}
		if l.degraded {
			l.mu.Unlock()
			return ErrDegraded
		}
		f, target := l.f, l.size
		l.mu.Unlock()
		err := f.Sync()
		l.mu.Lock()
		switch {
		case err == nil:
			l.fsyncs++
			l.durable = max(l.durable, target)
		case l.f != f:
			// Rebase replaced (and closed) the file meanwhile; the new file
			// was synced whole, so the loop finds the watermark past end.
		default:
			if failures++; failures > DefaultRetries {
				l.degraded = true
				l.mu.Unlock()
				return fmt.Errorf("%w (cause: %v)", ErrDegraded, err)
			}
			l.mu.Unlock()
			sleep(backoff)
			backoff *= 2
			continue
		}
		l.mu.Unlock()
	}
}

// Sync makes every record appended so far durable, whatever the policy.
func (l *Log) Sync() error {
	return l.syncTo(l.Size())
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

// readBodyLocked reads the file's records: the bytes between the header and
// the logical end, without the zero extension.
func (l *Log) readBodyLocked() ([]byte, error) {
	if _, err := l.f.Seek(headerSize, io.SeekStart); err != nil {
		return nil, err
	}
	body := make([]byte, l.size-l.base)
	if _, err := io.ReadFull(l.f, body); err != nil {
		return nil, err
	}
	return body, nil
}

// ReplayFrom invokes fn for every record at logical offset >= from, in
// order, passing each record's end offset and payload. The payload slice is
// only valid during the call.
func (l *Log) ReplayFrom(from int64, fn func(end int64, payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	body, err := l.readBodyLocked()
	if err != nil {
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
	return nil
}

// Rebase compacts the log after a checkpoint: records ending at logical
// offsets <= upTo are covered by the snapshot, so the file is atomically
// replaced by one whose base is upTo and whose body holds the records
// appended after it, each at its old logical offset. That suffix is often
// not empty: Store.Checkpoint drops the table locks once CaptureState has
// read upTo, so every write made while the snapshot is encoded and synced
// lands in it. The new file is synced whole before it replaces the old one,
// so the durable watermark moves to the log's end. A log that ends before
// upTo starts empty at upTo: the next record ends past the snapshot's cut.
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
		body, err := l.readBodyLocked()
		if err != nil {
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
	return l.replaceLocked(max(l.size, upTo)-int64(len(suffix)), suffix)
}

// upgrade rewrites a HOLWAL01 file's records in the current format at the
// same logical offsets (a frame's size does not change).
func (l *Log) upgrade() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	body, err := l.readBodyLocked()
	if err != nil {
		return err
	}
	payloads, _ := decodeFrames(body, true)
	var frames []byte
	for _, p := range payloads {
		frames = EncodeFrame(frames, p)
	}
	return l.replaceLocked(l.base, frames)
}

// replaceLocked atomically replaces the log file by one whose base is
// newBase and whose records are frames — written, synced, renamed over the
// old file and the directory synced — and makes it the log's file, ending
// at newBase plus the frames.
func (l *Log) replaceLocked(newBase int64, frames []byte) error {
	tmp := l.path + ".tmp"
	nf, err := l.fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var hdr [headerSize]byte
	copy(hdr[:], Magic[:])
	binary.LittleEndian.PutUint64(hdr[8:], uint64(newBase))
	err = writeAll(nf, hdr[:])
	if err == nil {
		err = writeAll(nf, frames)
	}
	if err == nil {
		err = nf.Sync()
	}
	if err == nil {
		err = l.fs.Rename(tmp, l.path)
	}
	if err != nil {
		nf.Close()
		l.fs.Remove(tmp)
		return err
	}
	old := l.f
	l.f = nf
	l.base = newBase
	l.size = newBase + int64(len(frames))
	l.fileLen = headerSize + int64(len(frames))
	old.Close()
	// The records are synced; the rename is durable once the directory is.
	if err := l.fs.SyncDir(filepath.Dir(l.path)); err != nil {
		return err
	}
	l.durable = l.size
	return nil
}

// writeAll writes b whole to f.
func writeAll(f File, b []byte) error {
	if len(b) == 0 {
		return nil
	}
	n, err := f.Write(b)
	if err == nil && n != len(b) {
		err = io.ErrShortWrite
	}
	return err
}

// Close trims the file's zero extension, flushes and closes the log. Safe
// to call on a degraded log.
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
	err := l.f.Truncate(headerSize + (l.size - l.base))
	if serr := l.f.Sync(); err == nil {
		err = serr
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
