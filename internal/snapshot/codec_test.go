package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"

	"holistic/internal/cracker"
	"holistic/internal/engine"
	"holistic/internal/shard"
	"holistic/internal/wal"
)

// pinnedRecords is one record of each op, with values at the edges of
// their types.
var pinnedRecords = []Record{
	{Op: opCreateTable, Table: "t"},
	{Op: opAddColumn, Table: "t", Col: "a", Vals: []int64{-1, 0, 1, 1 << 40, math.MinInt64, math.MaxInt64}},
	{Op: opInsert, Table: "t", First: 7, Rows: [][]int64{{1, 2}, {3, -4}}},
	{Op: opDelete, Table: "t", DelRows: []uint32{0, 5, math.MaxUint32}},
}

// pinnedState holds a cracked part with boundaries, a sorted part, parts
// without an index, tombstones, an empty table, and uvarints of more than
// one byte (Live, a boundary position).
func pinnedState() engine.EngineState {
	return engine.EngineState{Tables: []engine.TableState{
		{Name: "empty"},
		{Name: "kv", Order: []string{"a", "b"}, Live: 1000, Columns: []shard.ColumnSnapshot{
			{Name: "a", Rows: 6, Parts: []shard.PartSnapshot{
				{
					Vals: []int64{5, 3, 9}, Deleted: []bool{false, true, false},
					HasCrack: true, CrackVals: []int64{3, 5, 9}, CrackRows: []uint32{2, 0, 4},
					Boundaries: []cracker.Boundary{{Key: 4, Pos: 1}, {Key: 9, Pos: 2}, {Key: -1 << 40, Pos: 300}},
				},
				{
					Vals: []int64{300, -2, 7}, Deleted: []bool{false, false, true},
					HasCrack: true, CrackVals: []int64{-2, 7, 300}, CrackRows: []uint32{3, 5, 1}, Sorted: true,
				},
			}},
			{Name: "b", Rows: 6, Parts: []shard.PartSnapshot{
				{Vals: []int64{10, 6, 18}, Deleted: []bool{false, true, false}},
				{Vals: []int64{600, -4, 14}, Deleted: []bool{false, false, true}},
			}},
		}},
	}}
}

// pinnedValuesOnlyState holds a values-only cracked part with boundaries and
// a values-only sorted part, each with a tombstone: copies with no row ids.
func pinnedValuesOnlyState() engine.EngineState {
	return engine.EngineState{Tables: []engine.TableState{
		{Name: "v", Order: []string{"a"}, Live: 4, Columns: []shard.ColumnSnapshot{
			{Name: "a", Rows: 6, Parts: []shard.PartSnapshot{
				{
					Vals: []int64{5, 3, 9}, Deleted: []bool{false, true, false},
					HasCrack: true, CrackVals: []int64{5, 9}, Boundaries: []cracker.Boundary{{Key: 6, Pos: 1}},
				},
				{
					Vals: []int64{300, -2, 7}, Deleted: []bool{false, false, true},
					HasCrack: true, CrackVals: []int64{-2, 300}, Sorted: true,
				},
			}},
		}},
	}}
}

// TestEncodingUnchanged pins the on-disk bytes of both encoders. The
// expected images were produced by the append-per-value encoders this
// package used before it sized its output, so a pass proves the sized
// encoders write the same bytes and that existing data directories open.
func TestEncodingUnchanged(t *testing.T) {
	wantRecords := []string{
		"010174",
		"020174016106ffffffffffffffff0000000000000000010000000000000000000000000100000000000000000080ffffffffffffff7f",
		"030174070000000202010000000000000002000000000000000300000000000000fcffffffffffffff",
		"040174030000000005000000ffffffff",
	}
	for i, r := range pinnedRecords {
		got := EncodeRecord(r)
		if h := hex.EncodeToString(got); h != wantRecords[i] {
			t.Fatalf("record op %d:\n got %s\nwant %s", r.Op, h, wantRecords[i])
		}
		dec, err := DecodeRecord(got)
		if err != nil {
			t.Fatalf("record op %d does not decode: %v", r.Op, err)
		}
		if !bytes.Equal(EncodeRecord(dec), got) {
			t.Fatalf("record op %d does not survive a decode", r.Op)
		}
	}
	const wantState = "484f4c534e5030330205656d7074790000026b76e807020161016106020305000000000000000300000000000000090000000000000003000100010303000000000000000500000000000000090000000000000003020000000000000004000000030400000000000000010900000000000000020000000000ffffffac0200032c01000000000000feffffffffffffff0700000000000000030000010103feffffffffffffff07000000000000002c01000000000000030300000005000000010000000001016201620602030a00000000000000060000000000000012000000000000000300010000035802000000000000fcffffffffffffff0e000000000000000300000100e941d0e4"
	const wantValuesOnly = "484f4c534e50303301017604010161016106020305000000000000000300000000000000090000000000000003000100010205000000000000000900000000000000000106000000000000000100032c01000000000000feffffffffffffff0700000000000000030000010102feffffffffffffff2c0100000000000000000139cedaca"
	for _, c := range []struct {
		name string
		st   engine.EngineState
		want string
	}{{"state", pinnedState(), wantState}, {"values-only state", pinnedValuesOnlyState(), wantValuesOnly}} {
		img := EncodeState(c.st)
		if h := hex.EncodeToString(img); h != c.want {
			t.Fatalf("%s:\n got %s\nwant %s", c.name, h, c.want)
		}
		st, err := DecodeState(img)
		if err != nil {
			t.Fatalf("pinned %s does not decode: %v", c.name, err)
		}
		if !bytes.Equal(EncodeState(st), img) {
			t.Fatalf("pinned %s does not survive a decode", c.name)
		}
	}
}

// TestFormat02Reads: an image of the previous format, 02, whose grammar is a
// subset of 03's, decodes to the state it holds.
func TestFormat02Reads(t *testing.T) {
	img := EncodeState(pinnedState())
	copy(img, snapMagic02[:])
	st, err := DecodeState(seal(img[:len(img)-4]))
	if err != nil {
		t.Fatalf("format 02 image: %v", err)
	}
	if !bytes.Equal(EncodeState(st), EncodeState(pinnedState())) {
		t.Fatalf("format 02 image decodes to another state")
	}
}

// TestLoadInsertDeleteRoundTrip takes a loaded, inserted-into and
// deleted-from column through capture, encode, decode and restore. Parts
// hold tombstones only from their first merged delete, but every part
// still encodes one flag per row, so the restored engine captures to the
// same image and answers alike.
func TestLoadInsertDeleteRoundTrip(t *testing.T) {
	cfg := engine.Config{Strategy: engine.StrategyHolistic, Seed: 42, Shards: 3}
	e := engine.New(cfg)
	defer e.Close()
	tb := seedTable(t, e, 1000)
	if _, err := tb.InsertRows([][]int64{{5000, 1}, {5001, 2}, {5002, 3}}); err != nil {
		t.Fatal(err)
	}
	if n, err := tb.DeleteWhereIn("a", []int64{4, 5001}); err != nil || n != 2 {
		t.Fatalf("DeleteWhereIn = %d, %v", n, err)
	}
	e.MergePending()
	st, err := e.CaptureState(nil)
	if err != nil {
		t.Fatal(err)
	}
	img := EncodeState(st)
	dec, err := DecodeState(img)
	if err != nil {
		t.Fatal(err)
	}
	// Row 4 is in part 1, row 1001 (a=5001) in part 2; part 0 is all live.
	for _, c := range dec.Tables[0].Columns {
		for i, p := range c.Parts {
			dead := slices.Index(p.Deleted, true)
			if len(p.Deleted) != len(p.Vals) || (dead >= 0) != (i > 0) {
				t.Fatalf("%s part %d: %d flags for %d rows, first dead at %d", c.Name, i, len(p.Deleted), len(p.Vals), dead)
			}
		}
	}
	r := engine.New(cfg)
	defer r.Close()
	if err := r.RestoreState(dec); err != nil {
		t.Fatal(err)
	}
	again, err := r.CaptureState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeState(again), img) {
		t.Fatal("the restored engine captures to a different image")
	}
	expect(t, r, "a", 0, 6000, 1001, 999*1000/2-4+5000+5002)
}

// TestDecodedPartsKeepMergeSlack: a decoded part's base, copy and row ids
// come with the spare capacity a merge leaves (cracker.Slack), so the log
// replayed after a snapshot merges its first rows without moving them.
func TestDecodedPartsKeepMergeSlack(t *testing.T) {
	e := engine.New(engine.Config{Strategy: engine.StrategyHolistic, Seed: 42, Shards: 2})
	defer e.Close()
	tb := seedTable(t, e, 12_800)
	for _, col := range []string{"a", "b"} {
		if _, err := e.Select("kv", col, 100, 9000); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := tb.DeleteWhereIn("a", []int64{7, 8}); err != nil || n != 2 { // attaches a's row ids
		t.Fatalf("DeleteWhereIn = %d, %v", n, err)
	}
	e.MergePending()
	st, err := e.CaptureState(nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeState(EncodeState(st))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range dec.Tables[0].Columns {
		for i, p := range c.Parts {
			if n := len(p.Vals); cap(p.Vals) != n+n/64 {
				t.Fatalf("%s part %d: base of %d rows has capacity %d, want %d", c.Name, i, n, cap(p.Vals), n+n/64)
			}
			if n := len(p.CrackVals); !p.HasCrack || cap(p.CrackVals) != n+n/64 || cap(p.CrackRows) != len(p.CrackRows)+len(p.CrackRows)/64 {
				t.Fatalf("%s part %d: copy of %d values has capacity %d, row ids %d of %d", c.Name, i, n, cap(p.CrackVals), len(p.CrackRows), cap(p.CrackRows))
			}
			if (len(p.CrackRows) > 0) != (c.Name == "kv.a") {
				t.Fatalf("%s part %d: %d row ids; only a's delete attaches them", c.Name, i, len(p.CrackRows))
			}
		}
	}
}

// TestEncodersAllocateOnce: each encoder sizes its output exactly and
// allocates it once; a record encoded for the log leaves the frame
// header's headroom in front of it.
func TestEncodersAllocateOnce(t *testing.T) {
	for _, r := range pinnedRecords {
		if b := EncodeRecord(r); cap(b) != len(b) {
			t.Fatalf("record op %d: %d bytes in a %d-byte buffer", r.Op, len(b), cap(b))
		}
		if n := testing.AllocsPerRun(10, func() { encodeRecord(wal.FrameHeaderSize, r) }); n != 1 {
			t.Fatalf("record op %d: %v allocations, want 1", r.Op, n)
		}
		framed := encodeRecord(wal.FrameHeaderSize, r)
		if !bytes.Equal(framed[wal.FrameHeaderSize:], EncodeRecord(r)) {
			t.Fatalf("record op %d: framed encoding differs", r.Op)
		}
	}
	st := pinnedState()
	if b := EncodeState(st); cap(b) != len(b) {
		t.Fatalf("state: %d bytes in a %d-byte buffer", len(b), cap(b))
	}
	if n := testing.AllocsPerRun(10, func() { EncodeState(st) }); n != 1 {
		t.Fatalf("state: %v allocations, want 1", n)
	}
}

// TestValueBytesMatchEncoder: a column load's values are written from a
// byte view of their memory on a little-endian host and from the portable
// per-value encoder's copy elsewhere. The two hold the same bytes, so either
// host writes the record EncodeRecord pins.
func TestValueBytesMatchEncoder(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	cases := [][]int64{nil, {}, {0}, {-1}, {math.MinInt64}, {math.MaxInt64}, {math.MinInt64, math.MaxInt64, 0, -1, 1}}
	for _, n := range []int{2, 7, 1000} {
		vs := make([]int64, n)
		for i := range vs {
			vs[i] = int64(rng.Uint64())
		}
		cases = append(cases, vs)
	}
	for _, vs := range cases {
		want := appendValues(nil, vs)
		if nativeLittleEndian {
			view := int64View(vs)
			if !bytes.Equal(view, want) {
				t.Fatalf("%d values: the byte view differs from the encoder", len(vs))
			}
			if len(vs) > 0 && &view[0] != (*byte)(unsafe.Pointer(&vs[0])) {
				t.Fatalf("%d values: the byte view is a copy", len(vs))
			}
		}
		if !bytes.Equal(valueBytes(vs), want) {
			t.Fatalf("%d values: valueBytes differs from the encoder", len(vs))
		}
		r := Record{Op: opAddColumn, Table: "t", Col: "a", Vals: vs}
		if got := append(appendRecordHead(nil, r), valueBytes(vs)...); !bytes.Equal(got, EncodeRecord(r)) {
			t.Fatalf("%d values: head and values differ from the record", len(vs))
		}
	}
}

// overflowRecords carries lengths whose byte counts overflow uint64 when
// multiplied by their value width, each followed by a few bytes of data.
// In the "+1" cases the wrapped byte count equals the bytes that follow.
func overflowRecords() map[string][]byte {
	rec := func(op byte, fields ...[]byte) []byte {
		b := []byte{op, 1, 't'}
		for _, f := range fields {
			b = append(b, f...)
		}
		return b
	}
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	return map[string][]byte{
		"int64s n=2^61":             rec(opAddColumn, []byte{1, 'a'}, uv(1<<61), make([]byte, 8)),
		"int64s n=2^61+1":           rec(opAddColumn, []byte{1, 'a'}, uv(1<<61+1), make([]byte, 8)),
		"u32s n=2^62":               rec(opDelete, uv(1<<62), make([]byte, 4)),
		"u32s n=2^62+1":             rec(opDelete, uv(1<<62+1), make([]byte, 4)),
		"insert 2^62 rows×4 cols":   rec(opInsert, make([]byte, 4), uv(1<<62), uv(4), make([]byte, 32)),
		"insert 2^58 rows×0 cols":   rec(opInsert, make([]byte, 4), uv(1<<58), uv(0)),
		"insert 4 rows×2^62 cols":   rec(opInsert, make([]byte, 4), uv(4), uv(1<<62), make([]byte, 32)),
		"insert 2^61 rows×1 column": rec(opInsert, make([]byte, 4), uv(1<<61), uv(1), make([]byte, 8)),
	}
}

// overflowState is a snapshot body (no CRC) of one table, one column and
// one part whose Vals length is n, followed by 8 bytes of values and an
// empty tombstone slice and index flag.
func overflowState(n uint64) []byte {
	b := append([]byte(nil), snapMagic[:]...)
	b = append(b, 1, 2, 'k', 'v', 0, 1, 1, 'a', 1, 'a', 0, 1)
	b = binary.AppendUvarint(b, n)
	return append(b, make([]byte, 10)...)
}

func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(slices.Clip(body), crc32.ChecksumIEEE(body))
}

var errPanic = errors.New("decoder panicked")

// noPanic runs fn and turns a panic into an errPanic.
func noPanic(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", errPanic, p)
		}
	}()
	return fn()
}

// TestDecodeRejectsOverflowingLengths: a length whose byte count wraps
// uint64 is an error, not a huge allocation or a panic.
func TestDecodeRejectsOverflowingLengths(t *testing.T) {
	for name, b := range overflowRecords() {
		err := noPanic(func() error {
			_, err := DecodeRecord(b)
			return err
		})
		if err == nil || errors.Is(err, errPanic) {
			t.Errorf("%s: want a decode error, got %v", name, err)
		}
	}
	for _, n := range []uint64{1 << 61, 1<<61 + 1} {
		err := noPanic(func() error {
			_, err := DecodeState(seal(overflowState(n)))
			return err
		})
		if err == nil || errors.Is(err, errPanic) {
			t.Errorf("state with Vals length %d: want a decode error, got %v", n, err)
		}
	}
}

// TestDecodeRejectsNonCanonical: bytes the encoders never write — a padded
// uvarint, trailing bytes, an insert's columns without rows or rows
// without columns (which the engine refuses to log), a bool other than 0
// or 1 — are errors, so whatever decodes re-encodes to its own bytes.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	for name, b := range map[string][]byte{
		"padded uvarint":   {opCreateTable, 0x81, 0x00, 't'},
		"trailing byte":    {opCreateTable, 1, 't', 0},
		"columns, no rows": {opInsert, 1, 't', 0, 0, 0, 0, 0, 2},
		"rows, no columns": {opInsert, 1, 't', 0, 0, 0, 0, 2, 0},
	} {
		if r, err := DecodeRecord(b); err == nil {
			t.Errorf("%s: decoded to %+v", name, r)
		}
	}
	tb, err := newEngine(t).CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.InsertRows([][]int64{{}}); err == nil {
		t.Errorf("the engine inserted a row without values into a table without columns")
	}
	img := EncodeState(engine.EngineState{Tables: []engine.TableState{{Name: "t", Order: []string{"a"},
		Columns: []shard.ColumnSnapshot{{Name: "a", Parts: []shard.PartSnapshot{{Vals: []int64{1}, Deleted: []bool{true}}}}}}}})
	body := slices.Clone(img[:len(img)-4])
	body[bytes.LastIndexByte(body, 1)] = 2 // the tombstone
	if _, err := DecodeState(seal(body)); err == nil {
		t.Errorf("bool 2 decoded")
	}
}

// FuzzDecodeRecord: DecodeRecord never panics, and a record that decodes
// re-encodes to the same bytes.
func FuzzDecodeRecord(f *testing.F) {
	for _, r := range pinnedRecords {
		f.Add(EncodeRecord(r))
	}
	for _, b := range overflowRecords() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeRecord(b)
		if err != nil {
			return
		}
		if got := EncodeRecord(r); !bytes.Equal(got, b) {
			t.Fatalf("re-encoded %x, decoded from %x", got, b)
		}
	})
}

// FuzzDecodeState: DecodeState never panics, and a state that decodes
// re-encodes to the same image (a format 02 one as 03). The input is taken both as a whole image
// and as a body sealed with its CRC, so the fuzzer reaches the decoder
// behind the checksum.
func FuzzDecodeState(f *testing.F) {
	img := EncodeState(pinnedState())
	f.Add(img[:len(img)-4])
	vo := EncodeState(pinnedValuesOnlyState())
	f.Add(vo[:len(vo)-4])
	empty := EncodeState(engine.EngineState{})
	f.Add(empty[:len(empty)-4])
	f.Add(overflowState(1 << 61))
	f.Add(overflowState(1<<61 + 1))
	f.Fuzz(func(t *testing.T, b []byte) {
		DecodeState(b)
		sealed := seal(b)
		st, err := DecodeState(sealed)
		if err != nil {
			return
		}
		// A format 02 image re-encodes as 03: the same body behind the
		// current magic, under its own checksum.
		want := sealed
		if [8]byte(sealed[:8]) == snapMagic02 {
			want = seal(append(snapMagic[:], sealed[8:len(sealed)-4]...))
		}
		if got := EncodeState(st); !bytes.Equal(got, want) {
			t.Fatalf("re-encoded %x, decoded from %x", got, sealed)
		}
	})
}

// benchState is a two-column table of 2M rows in four parts each: column
// a cracked with a boundary every 1 024 positions, column b sorted.
func benchState() engine.EngineState {
	const parts, per = 4, 1 << 19
	col := func(name string, sorted bool) shard.ColumnSnapshot {
		c := shard.ColumnSnapshot{Name: name, Rows: parts * per}
		for p := range parts {
			ps := shard.PartSnapshot{Vals: make([]int64, per), Deleted: make([]bool, per), HasCrack: true,
				CrackVals: make([]int64, per), CrackRows: make([]uint32, per), Sorted: sorted}
			for i := range per {
				ps.Vals[i] = int64((i*7919 + p) % per)
				ps.CrackVals[i] = int64(i)
				ps.CrackRows[i] = uint32(i*parts + p)
				ps.Deleted[i] = i%97 == 0
			}
			if !sorted {
				for pos := 1024; pos < per; pos += 1024 {
					ps.Boundaries = append(ps.Boundaries, cracker.Boundary{Key: int64(pos), Pos: pos})
				}
			}
			c.Parts = append(c.Parts, ps)
		}
		return c
	}
	return engine.EngineState{Tables: []engine.TableState{{Name: "r", Order: []string{"a", "b"}, Live: parts * per,
		Columns: []shard.ColumnSnapshot{col("a", false), col("b", true)}}}}
}

// BenchmarkLogAddColumn appends a 2M-value column's record to a store's
// log under SyncOff, as a logged column load does: the values are written
// from the column's own memory, so an append allocates no buffer for them.
// Every eighth append is preceded by an untimed checkpoint, which compacts
// the log.
func BenchmarkLogAddColumn(b *testing.B) {
	vals := make([]int64, 2<<20)
	for i := range vals {
		vals[i] = int64(i * 31)
	}
	e := engine.New(engine.Config{Strategy: engine.StrategyHolistic, Seed: 1})
	defer e.Close()
	s, _, err := Open(nil, b.TempDir(), e, Config{Policy: wal.Policy{Sync: wal.SyncOff}, Shards: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.SetBytes(int64(8 * len(vals)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if i%8 == 7 {
			b.StopTimer()
			if _, err := s.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := s.LogAddColumn("r", "a", vals); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeState encodes benchState's image: one allocation. The
// first encode, outside the timer, also builds crc32's tables.
func BenchmarkEncodeState(b *testing.B) {
	st := benchState()
	b.SetBytes(int64(len(EncodeState(st))))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		EncodeState(st)
	}
}

// BenchmarkDecodeState decodes benchState's image: one allocation per
// decoded slice.
func BenchmarkDecodeState(b *testing.B) {
	img := EncodeState(benchState())
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := DecodeState(img); err != nil {
			b.Fatal(err)
		}
	}
}
