package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestConcurrentAppendsUnderStickySyncFailure: eight appenders share the
// log's fsyncs when the disk starts failing every fsync. Every call
// returns — acked with a record a reopen replays, or failed with
// ErrDegraded — and none hangs on another's failed fsync.
func TestConcurrentAppendsUnderStickySyncFailure(t *testing.T) {
	const writers, per = 8, 40
	ffs := NewFaultFS(OSFS{})
	l, path := openTemp(t, ffs, Policy{Sync: SyncAlways})
	ffs.FailSyncs(60, errors.New("fsync: EIO"), true)
	acked := make([][]string, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p := fmt.Sprintf("w%d-%d", w, i)
				_, err := l.Append([]byte(p))
				switch {
				case err == nil:
					acked[w] = append(acked[w], p)
				case errors.Is(err, ErrDegraded):
				default:
					t.Errorf("writer %d: append failed with %v, want ErrDegraded", w, err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("an appender hung on a failing fsync")
	}
	if !l.Degraded() || ffs.Injected() == 0 {
		t.Fatalf("sticky fsync failures did not degrade the log: degraded %v, %d faults injected", l.Degraded(), ffs.Injected())
	}
	l.Close()
	ffs.Clear()

	l2, _, err := Open(OSFS{}, path, Policy{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	replayed := map[string]bool{}
	for _, p := range replayAll(t, l2) {
		replayed[string(p)] = true
	}
	total := 0
	for w := range acked {
		total += len(acked[w])
		for _, p := range acked[w] {
			if !replayed[p] {
				t.Fatalf("acked record %s does not replay", p)
			}
		}
	}
	if total == 0 || total == writers*per {
		t.Fatalf("%d of %d appends acked: the fault was armed to land mid-run", total, writers*per)
	}
}

// TestRetrySleepsOutsideMutex: a write or fsync that failed backs off
// without the log's mutex, so the log serves other callers meanwhile.
func TestRetrySleepsOutsideMutex(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(*FaultFS)
	}{
		{"write", func(f *FaultFS) { f.FailWrites(1, errors.New("write: EIO"), false) }},
		{"fsync", func(f *FaultFS) { f.FailSyncs(1, errors.New("fsync: EIO"), false) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ffs := NewFaultFS(OSFS{})
			l, _ := openTemp(t, ffs, Policy{Sync: SyncAlways})
			defer l.Close()
			slept := 0
			sleep = func(time.Duration) {
				slept++
				served := make(chan struct{})
				go func() { l.Size(); close(served) }()
				select {
				case <-served:
				case <-time.After(10 * time.Second):
					t.Error("the log's mutex is held across the retry's backoff")
				}
			}
			defer func() { sleep = time.Sleep }()
			tc.arm(ffs)
			if _, err := l.Append([]byte("retried")); err != nil {
				t.Fatalf("append after one %s failure: %v", tc.name, err)
			}
			if slept != 1 {
				t.Fatalf("%d backoffs, want 1", slept)
			}
			if n := ffs.Injected(); n != 1 {
				t.Fatalf("%d faults injected, want exactly the one armed", n)
			}
			if got := replayAll(t, l); len(got) != 1 || string(got[0]) != "retried" {
				t.Fatalf("replay after the retry: %q", got)
			}
		})
	}
}

// blockingFS parks the first fsync of any file it opened until release is
// closed.
type blockingFS struct {
	OSFS
	once             sync.Once
	entered, release chan struct{}
}

func (b *blockingFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := b.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &blockingFile{File: f, fs: b}, nil
}

type blockingFile struct {
	File
	fs *blockingFS
}

func (f *blockingFile) Sync() error {
	first := false
	f.fs.once.Do(func() { first = true })
	if first {
		close(f.fs.entered)
		<-f.fs.release
	}
	return f.File.Sync()
}

// TestFsyncOutsideMutex: an fsync runs without the log's mutex, and a
// writer its watermark does not cover starts its own fsync instead of
// waiting for one in flight, whose end covers both writers' records.
func TestFsyncOutsideMutex(t *testing.T) {
	bfs := &blockingFS{entered: make(chan struct{}), release: make(chan struct{})}
	l, path := openTemp(t, bfs, Policy{Sync: SyncAlways})
	first := make(chan error, 1)
	go func() {
		_, err := l.Append([]byte("first"))
		first <- err
	}()
	<-bfs.entered
	second := make(chan error, 1)
	go func() {
		_, err := l.Append([]byte("second"))
		second <- err
	}()
	select {
	case err := <-second:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a writer waited for another writer's fsync")
	}
	if st := l.Stats(); st.Fsyncs != 1 || st.DurableLag != 0 || st.Records != 2 {
		t.Fatalf("stats with the first fsync still out: %+v, want 2 records, 1 fsync, no lag", st)
	}
	close(bfs.release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, _, err := Open(OSFS{}, path, Policy{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := replayAll(t, l2); len(got) != 2 {
		t.Fatalf("replayed %q, want both records", got)
	}
}

// TestFormat01FileRecovers: a HOLWAL01 file — frame CRCs over the payload
// alone — still recovers, is rewritten in the current format at the same
// offsets, and takes appends.
func TestFormat01FileRecovers(t *testing.T) {
	records := []string{"one", "", "three-333"}
	file := append([]byte("HOLWAL01"), make([]byte, 8)...)
	binary.LittleEndian.PutUint64(file[8:], 1000) // a base from an earlier rebase
	end := int64(1000)
	for _, r := range records {
		var hdr [FrameHeaderSize]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(r)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE([]byte(r)))
		file = append(append(file, hdr[:]...), r...)
		end += int64(FrameHeaderSize + len(r))
	}
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	l, tear, err := Open(OSFS{}, path, Policy{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if tear != -1 || l.Size() != end {
		t.Fatalf("tear %d, size %d; want -1 and %d", tear, l.Size(), end)
	}
	if got := replayAll(t, l); len(got) != 3 || string(got[0]) != "one" || string(got[2]) != "three-333" {
		t.Fatalf("replayed %q", got)
	}
	off, err := l.Append([]byte("four"))
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b[:8], Magic[:]) {
		t.Fatalf("rewritten file starts %q (%v), want %q", b[:8], err, Magic[:])
	}
	l2, tear, err := Open(OSFS{}, path, Policy{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := replayAll(t, l2); tear != -1 || l2.Size() != off || len(got) != 4 || string(got[3]) != "four" {
		t.Fatalf("after reopen: tear %d, size %d (want %d), records %q", tear, l2.Size(), off, got)
	}
}

// TestPreExtendedTail: a log crashed while open leaves its file extended
// past the last frame. Zeros there are no tear; a partial frame in them is.
func TestPreExtendedTail(t *testing.T) {
	l, path := openTemp(t, OSFS{}, Policy{Sync: SyncAlways})
	defer l.Close()
	for _, r := range []string{"alpha", "beta", "gamma"} {
		if _, err := l.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	end := l.Size()
	crashed, err := os.ReadFile(path) // what a crash leaves: the log is still open
	if err != nil {
		t.Fatal(err)
	}
	if records := headerSize + end; int64(len(crashed)) <= records+PreExtend/2 || !allZero(crashed[records:]) {
		t.Fatalf("file is %d bytes with %d bytes of records, want them followed by zeros to about %d", len(crashed), records, PreExtend)
	}
	partial := bytes.Clone(crashed)
	copy(partial[headerSize+end:], EncodeFrame(nil, []byte("delta"))[:6])
	for _, tc := range []struct {
		name string
		file []byte
		tear int64
	}{{"zeros", crashed, -1}, {"partial frame", partial, end}} {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "wal.log")
			if err := os.WriteFile(p, tc.file, 0o644); err != nil {
				t.Fatal(err)
			}
			l2, tear, err := Open(OSFS{}, p, Policy{Sync: SyncOff})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if got := replayAll(t, l2); tear != tc.tear || len(got) != 3 || l2.Size() != end {
				t.Fatalf("tear %d (want %d), size %d (want %d), records %q", tear, tc.tear, l2.Size(), end, got)
			}
		})
	}
}

// seekCountingFS counts the Seeks on the files it opened.
type seekCountingFS struct {
	OSFS
	seeks int
}

func (s *seekCountingFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := s.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &seekCountingFile{File: f, fs: s}, nil
}

type seekCountingFile struct {
	File
	fs *seekCountingFS
}

func (f *seekCountingFile) Seek(off int64, whence int) (int64, error) {
	f.fs.seeks++
	return f.File.Seek(off, whence)
}

// TestAppendDoesNotSeek: an append writes at the tail's offset, so it makes
// no Seek, with a body or without one, across a pre-extension of the file.
func TestAppendDoesNotSeek(t *testing.T) {
	sfs := &seekCountingFS{}
	l, _ := openTemp(t, sfs, Policy{Sync: SyncAlways})
	defer l.Close()
	sfs.seeks = 0
	body := make([]byte, PreExtend)
	for i := range 4 {
		if _, err := l.Append([]byte("record")); err != nil {
			t.Fatal(err)
		}
		end, err := l.AppendFrame(make([]byte, FrameHeaderSize+i), body)
		if err == nil {
			err = l.WaitDurable(end)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if sfs.seeks != 0 {
		t.Fatalf("%d seeks in 8 appends", sfs.seeks)
	}
	if got := replayAll(t, l); len(got) != 8 || len(got[7]) != 3+PreExtend {
		t.Fatalf("replayed %d records", len(got))
	}
}

// TestConcurrentBodyAppends: writers append head+body frames at once, each
// waiting for its own; every record replays whole, in some order.
func TestConcurrentBodyAppends(t *testing.T) {
	const writers, per = 4, 20
	l, path := openTemp(t, OSFS{}, Policy{Sync: SyncAlways})
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range per {
				body := bytes.Repeat([]byte{byte(w), byte(i)}, 4096+i)
				end, err := l.AppendFrame(append(make([]byte, FrameHeaderSize), byte(w), byte(i)), body)
				if err == nil {
					err = l.WaitDurable(end)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	l.Close()
	l2, tear, err := Open(OSFS{}, path, Policy{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := replayAll(t, l2)
	if tear != -1 || len(got) != writers*per {
		t.Fatalf("tear %d, %d records, want %d", tear, len(got), writers*per)
	}
	for _, p := range got {
		w, i := p[0], p[1]
		if want := bytes.Repeat([]byte{w, i}, 4096+int(i)); !bytes.Equal(p[2:], want) {
			t.Fatalf("record %d/%d replays torn", w, i)
		}
	}
}
