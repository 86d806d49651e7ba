package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

func openTemp(t *testing.T, fs FS, policy Policy) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, tear, err := Open(fs, path, policy)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if tear != -1 {
		t.Fatalf("fresh log reported tear at %d", tear)
	}
	return l, path
}

func replayAll(t *testing.T, l *Log) [][]byte {
	t.Helper()
	var got [][]byte
	if err := l.ReplayFrom(0, func(end int64, p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatalf("ReplayFrom: %v", err)
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	l, path := openTemp(t, OSFS{}, Policy{Sync: SyncOff})
	records := [][]byte{[]byte("one"), []byte(""), []byte("three-333"), bytes.Repeat([]byte{0xAB}, 4096)}
	var offs []int64
	for _, r := range records {
		off, err := l.Append(r)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		offs = append(offs, off)
	}
	if got := replayAll(t, l); len(got) != len(records) {
		t.Fatalf("replayed %d records, want %d", len(got), len(records))
	} else {
		for i := range got {
			if !bytes.Equal(got[i], records[i]) {
				t.Fatalf("record %d mismatch", i)
			}
		}
	}
	// Replay from a mid offset yields only the suffix.
	var tail [][]byte
	if err := l.ReplayFrom(offs[1], func(end int64, p []byte) error {
		tail = append(tail, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatalf("ReplayFrom mid: %v", err)
	}
	if len(tail) != 2 || !bytes.Equal(tail[0], records[2]) {
		t.Fatalf("suffix replay wrong: %d records", len(tail))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: same records, same end offset.
	l2, tear, err := Open(OSFS{}, path, Policy{Sync: SyncOff})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if tear != -1 {
		t.Fatalf("clean log reported tear at %d", tear)
	}
	if got := replayAll(t, l2); len(got) != len(records) {
		t.Fatalf("after reopen: %d records, want %d", len(got), len(records))
	}
	if l2.Size() != offs[len(offs)-1] {
		t.Fatalf("size %d after reopen, want %d", l2.Size(), offs[len(offs)-1])
	}
}

func TestTornTailTruncated(t *testing.T) {
	l, path := openTemp(t, OSFS{}, Policy{Sync: SyncOff})
	for _, r := range [][]byte{[]byte("alpha"), []byte("beta")} {
		if _, err := l.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	end := l.Size()
	l.Close()

	// Simulate a crash mid-append: garbage tail bytes.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x05, 0x00, 0x00, 0x00, 0xDE, 0xAD})
	f.Close()

	l2, tear, err := Open(OSFS{}, path, Policy{Sync: SyncOff})
	if err != nil {
		t.Fatalf("reopen torn: %v", err)
	}
	defer l2.Close()
	if tear != end {
		t.Fatalf("tear at %d, want %d", tear, end)
	}
	got := replayAll(t, l2)
	if len(got) != 2 || string(got[0]) != "alpha" || string(got[1]) != "beta" {
		t.Fatalf("torn recovery lost records: %q", got)
	}
	// Appends continue cleanly after the cut.
	if _, err := l2.Append([]byte("gamma")); err != nil {
		t.Fatalf("Append after tear: %v", err)
	}
	if got := replayAll(t, l2); len(got) != 3 || string(got[2]) != "gamma" {
		t.Fatalf("post-tear append lost: %q", got)
	}
}

func TestCorruptMiddleStopsReplayAtBadFrame(t *testing.T) {
	l, path := openTemp(t, OSFS{}, Policy{Sync: SyncOff})
	for _, r := range [][]byte{[]byte("keep-me"), []byte("corrupt-me"), []byte("after")} {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Flip a bit inside the second record's payload.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx := bytes.Index(data, []byte("corrupt-me"))
	if idx < 0 {
		t.Fatal("payload not found")
	}
	data[idx] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, tear, err := Open(OSFS{}, path, Policy{Sync: SyncOff})
	if err != nil {
		t.Fatalf("reopen corrupt: %v", err)
	}
	defer l2.Close()
	if tear < 0 {
		t.Fatal("corruption not detected as tear")
	}
	got := replayAll(t, l2)
	if len(got) != 1 || string(got[0]) != "keep-me" {
		t.Fatalf("want only the pre-corruption record, got %q", got)
	}
}

func TestTransientWriteErrorRetried(t *testing.T) {
	ffs := NewFaultFS(OSFS{})
	l, _ := openTemp(t, ffs, Policy{Sync: SyncOff})
	defer l.Close()
	if _, err := l.Append([]byte("pre")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("transient disk glitch")
	ffs.FailWrites(1, boom, false) // next write fails once, then recovers
	if _, err := l.Append([]byte("retried")); err != nil {
		t.Fatalf("transient error not retried: %v", err)
	}
	if l.Degraded() {
		t.Fatal("log degraded after a recovered transient error")
	}
	if n := ffs.Injected(); n != 1 {
		t.Fatalf("%d faults injected, want exactly the one armed", n)
	}
	got := replayAll(t, l)
	if len(got) != 2 || string(got[1]) != "retried" {
		t.Fatalf("retried record lost or duplicated: %q", got)
	}
}

func TestPersistentWriteErrorDegrades(t *testing.T) {
	ffs := NewFaultFS(OSFS{})
	l, path := openTemp(t, ffs, Policy{Sync: SyncOff})
	if _, err := l.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk is gone")
	ffs.FailWrites(1, boom, true) // sticky: every write fails
	if _, err := l.Append([]byte("doomed")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("want ErrDegraded, got %v", err)
	}
	// Sticky: a later append fails fast with the same sentinel.
	if _, err := l.Append([]byte("still doomed")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded state not sticky: %v", err)
	}
	if !l.Degraded() {
		t.Fatal("Degraded() false after persistent failure")
	}
	if ffs.Injected() == 0 {
		t.Fatal("no write fault fired")
	}
	l.Close()

	// The file on disk is still fully valid: only the durable record.
	ffs.Clear()
	l2, tear, err := Open(OSFS{}, path, Policy{Sync: SyncOff})
	if err != nil {
		t.Fatalf("reopen after degrade: %v", err)
	}
	defer l2.Close()
	if tear != -1 {
		t.Fatalf("degraded log left a torn tail at %d", tear)
	}
	got := replayAll(t, l2)
	if len(got) != 1 || string(got[0]) != "durable" {
		t.Fatalf("degraded log corrupted data: %q", got)
	}
}

func TestShortWriteRecovered(t *testing.T) {
	ffs := NewFaultFS(OSFS{})
	l, _ := openTemp(t, ffs, Policy{Sync: SyncOff})
	defer l.Close()
	ffs.ShortWrite(1) // next append tears mid-frame, then retries cleanly
	if _, err := l.Append([]byte("torn-then-whole")); err != nil {
		t.Fatalf("short write not recovered: %v", err)
	}
	if n := ffs.Injected(); n != 1 {
		t.Fatalf("%d faults injected, want exactly the one armed", n)
	}
	got := replayAll(t, l)
	if len(got) != 1 || string(got[0]) != "torn-then-whole" {
		t.Fatalf("short-write recovery wrong: %q", got)
	}
}

func TestSyncAlwaysFailureDegrades(t *testing.T) {
	ffs := NewFaultFS(OSFS{})
	l, _ := openTemp(t, ffs, Policy{Sync: SyncAlways})
	defer l.Close()
	ffs.FailSyncs(1, errors.New("fsync: EIO"), true)
	if _, err := l.Append([]byte("unsynced")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("want ErrDegraded on persistent fsync failure, got %v", err)
	}
	if ffs.Injected() == 0 {
		t.Fatal("no fsync fault fired")
	}
}

func TestRebaseCompactsAndPreservesOffsets(t *testing.T) {
	l, path := openTemp(t, OSFS{}, Policy{Sync: SyncOff})
	for i := 0; i < 10; i++ {
		if _, err := l.Append(bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	cut := l.Size()
	if err := l.Rebase(cut); err != nil {
		t.Fatalf("Rebase: %v", err)
	}
	if l.Size() != cut {
		t.Fatalf("Rebase moved the logical end: %d != %d", l.Size(), cut)
	}
	off, err := l.Append([]byte("after-rebase"))
	if err != nil {
		t.Fatalf("Append after Rebase: %v", err)
	}
	if off <= cut {
		t.Fatalf("offset went backwards after Rebase: %d <= %d", off, cut)
	}
	l.Close()

	// Reopened log: only the post-rebase record, offsets continue.
	l2, _, err := Open(OSFS{}, path, Policy{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Size() != off {
		t.Fatalf("size %d after reopen, want %d", l2.Size(), off)
	}
	var n int
	if err := l2.ReplayFrom(cut, func(end int64, p []byte) error {
		n++
		if string(p) != "after-rebase" {
			t.Fatalf("unexpected record %q", p)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d records after rebase, want 1", n)
	}
	// The file itself shrank: compaction actually dropped covered records.
	if fi, err := os.Stat(path); err != nil || fi.Size() > 200 {
		t.Fatalf("rebased file not compacted (size %d, err %v)", fi.Size(), err)
	}
}

// TestRebaseKeepsSuffix: records appended after the checkpoint's cut — the
// writes made while a checkpoint encodes and syncs its snapshot — survive
// the rebase at their logical offsets, before and after a reopen, and the
// file holds nothing else.
func TestRebaseKeepsSuffix(t *testing.T) {
	type record struct {
		end     int64
		payload string
	}
	l, path := openTemp(t, OSFS{}, Policy{Sync: SyncOff})
	for i := 0; i < 5; i++ {
		if _, err := l.Append(bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	cut, fileSize := l.Size(), int64(headerSize)
	var suffix []record
	for _, p := range []string{"written", "during", "the-checkpoint"} {
		end, err := l.Append([]byte(p))
		if err != nil {
			t.Fatal(err)
		}
		suffix = append(suffix, record{end, p})
		fileSize += int64(FrameHeaderSize + len(p))
	}
	if err := l.Rebase(cut); err != nil {
		t.Fatalf("Rebase: %v", err)
	}
	check := func(l *Log, when string) {
		t.Helper()
		var got []record
		err := l.ReplayFrom(cut, func(end int64, p []byte) error {
			got = append(got, record{end, string(p)})
			return nil
		})
		if size := suffix[len(suffix)-1].end; err != nil || l.Size() != size || !slices.Equal(got, suffix) {
			t.Fatalf("%s: size %d (want %d), replay from the cut %v (%v), want %v", when, l.Size(), size, got, err, suffix)
		}
	}
	check(l, "after Rebase")
	l.Close()
	if fi, err := os.Stat(path); err != nil || fi.Size() != fileSize {
		t.Fatalf("rebased file: %v (%v), want the header and the suffix, %d bytes", fi, err, fileSize)
	}
	l2, _, err := Open(OSFS{}, path, Policy{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	check(l2, "after reopen")
}

// TestRebasePastEnd: rebasing a log that ends before the cut — its tail
// never reached the disk — leaves it empty at the cut, so the next record
// ends past the cut, before and after a reopen, and a replay from the cut
// finds it.
func TestRebasePastEnd(t *testing.T) {
	l, path := openTemp(t, OSFS{}, Policy{Sync: SyncOff})
	if _, err := l.Append([]byte("covered")); err != nil {
		t.Fatal(err)
	}
	cut := l.Size() + 1000
	if err := l.Rebase(cut); err != nil {
		t.Fatalf("Rebase: %v", err)
	}
	if l.Size() != cut {
		t.Fatalf("size %d after Rebase past the end, want the cut %d", l.Size(), cut)
	}
	end, err := l.Append([]byte("acknowledged"))
	if err != nil {
		t.Fatal(err)
	}
	if want := cut + FrameHeaderSize + int64(len("acknowledged")); end != want {
		t.Fatalf("record ends at %d, want %d", end, want)
	}
	l.Close()
	l2, _, err := Open(OSFS{}, path, Policy{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var got []string
	if err := l2.ReplayFrom(cut, func(e int64, p []byte) error {
		if e != end {
			t.Errorf("record %q ends at %d after reopen, want %d", p, e, end)
		}
		got = append(got, string(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if l2.Size() != end || !slices.Equal(got, []string{"acknowledged"}) {
		t.Fatalf("reopened: size %d, replay from the cut %q; want %d and the record appended after the rebase", l2.Size(), got, end)
	}
}

func TestRebaseRenameFailureKeepsOldLog(t *testing.T) {
	ffs := NewFaultFS(OSFS{})
	l, _ := openTemp(t, ffs, Policy{Sync: SyncOff})
	defer l.Close()
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte("rec")); err != nil {
			t.Fatal(err)
		}
	}
	ffs.FailRenames(1, errors.New("rename: EIO"))
	if err := l.Rebase(l.Size()); err == nil {
		t.Fatal("Rebase succeeded despite rename failure")
	}
	if l.Degraded() {
		t.Fatal("failed Rebase degraded the log; old file is still valid")
	}
	if n := ffs.Injected(); n != 1 {
		t.Fatalf("%d faults injected, want exactly the one armed", n)
	}
	// Log still fully usable.
	if _, err := l.Append([]byte("post")); err != nil {
		t.Fatalf("Append after failed Rebase: %v", err)
	}
	if got := replayAll(t, l); len(got) != 6 {
		t.Fatalf("records lost after failed Rebase: %d", len(got))
	}
}

func TestBitFlipCaughtOnRecovery(t *testing.T) {
	ffs := NewFaultFS(OSFS{})
	l, path := openTemp(t, ffs, Policy{Sync: SyncOff})
	if _, err := l.Append([]byte("good-record")); err != nil {
		t.Fatal(err)
	}
	ffs.FlipBit(1) // corrupt the next frame silently on its way to disk
	if _, err := l.Append([]byte("silently-corrupted")); err != nil {
		t.Fatal(err)
	}
	if n := ffs.Injected(); n != 1 {
		t.Fatalf("%d faults injected, want exactly the one armed", n)
	}
	l.Close()

	l2, tear, err := Open(OSFS{}, path, Policy{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if tear < 0 {
		t.Fatal("bit flip not detected")
	}
	got := replayAll(t, l2)
	if len(got) != 1 || string(got[0]) != "good-record" {
		t.Fatalf("bit-flipped record leaked into replay: %q", got)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"interval", SyncInterval}, {"off", SyncOff}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() round-trip broken for %q", tc.in)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// TestBodyWriteFaults fails the body write of a frame appended as a head
// and a body — the shape of a logged column load — by error, short write
// and bit flip. A failed write cuts the file back to the frame's start
// before the retry, the retry lands whole, exhausting the retries degrades
// the log, and a reopen replays the whole record or none of it.
func TestBodyWriteFaults(t *testing.T) {
	body := make([]byte, 64<<10)
	for i := range body {
		body[i] = byte(i*31 + i>>8)
	}
	record := append([]byte("head"), body...)
	boom := errors.New("write: EIO")
	for _, tc := range []struct {
		name     string
		arm      func(*FaultFS) // the body is the frame's first write, the head its second
		backoffs int
		faults   int  // faults the arm fires
		whole    bool // a reopen replays the record
		degraded bool
	}{
		{"error", func(f *FaultFS) { f.FailWrites(1, boom, false) }, 1, 1, true, false},
		{"short", func(f *FaultFS) { f.ShortWrite(1) }, 1, 1, true, false},
		{"flip", func(f *FaultFS) { f.FlipBit(1) }, 0, 1, false, false},
		{"sticky", func(f *FaultFS) { f.FailWrites(1, boom, true) }, DefaultRetries, DefaultRetries + 1, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ffs := NewFaultFS(OSFS{})
			l, path := openTemp(t, ffs, Policy{Sync: SyncOff})
			if _, err := l.Append([]byte("before")); err != nil {
				t.Fatal(err)
			}
			before := l.Size()
			var cuts []int64 // the file's length at each backoff
			sleep = func(time.Duration) {
				fi, err := os.Stat(path)
				if err != nil {
					t.Error(err)
					return
				}
				cuts = append(cuts, fi.Size())
			}
			defer func() { sleep = time.Sleep }()
			tc.arm(ffs)
			_, err := l.AppendFrame(append(make([]byte, FrameHeaderSize), "head"...), body)
			if tc.degraded {
				if !errors.Is(err, ErrDegraded) || !l.Degraded() {
					t.Fatalf("append: %v, degraded %v; want ErrDegraded", err, l.Degraded())
				}
			} else if err != nil {
				t.Fatalf("append: %v", err)
			}
			if len(cuts) != tc.backoffs {
				t.Fatalf("%d backoffs, want %d", len(cuts), tc.backoffs)
			}
			if n := ffs.Injected(); n != tc.faults {
				t.Fatalf("%d faults injected, want %d", n, tc.faults)
			}
			for i, c := range cuts {
				if c != headerSize+before {
					t.Fatalf("backoff %d: file is %d bytes, want it cut to the frame's start, %d", i, c, headerSize+before)
				}
			}
			l.Close()

			ffs.Clear()
			l2, tear, err := Open(OSFS{}, path, Policy{Sync: SyncOff})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			want := [][]byte{[]byte("before")}
			wantTear := int64(-1)
			if tc.whole {
				want = append(want, record)
			} else if !tc.degraded {
				wantTear = before // the flipped frame is cut at recovery
			}
			if got := replayAll(t, l2); tear != wantTear || !slices.EqualFunc(got, want, bytes.Equal) {
				t.Fatalf("reopen: tear %d (want %d), %d records (want %d)", tear, wantTear, len(got), len(want))
			}
		})
	}
}
