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
// one byte (Live, a boundary position). wantState is its image as an earlier
// build wrote it, each copy with row ids: a[0]'s were 2, 0, 4 and a[1]'s
// 3, 5, 1.
func pinnedState() engine.EngineState {
	return engine.EngineState{Tables: []engine.TableState{
		{Name: "empty"},
		{Name: "kv", Order: []string{"a", "b"}, Live: 1000, Columns: []shard.ColumnSnapshot{
			{Name: "a", Rows: 6, Parts: []shard.PartSnapshot{
				{
					Vals: []int64{5, 3, 9}, Deleted: []bool{false, true, false},
					HasCrack: true, CrackVals: []int64{3, 5, 9},
					Boundaries: []cracker.Boundary{{Key: 4, Pos: 1}, {Key: 9, Pos: 2}, {Key: -1 << 40, Pos: 300}},
				},
				{
					Vals: []int64{300, -2, 7}, Deleted: []bool{false, false, true},
					HasCrack: true, CrackVals: []int64{-2, 7, 300}, Sorted: true,
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

// wantState is pinnedState's image with row ids beside every copy, as
// earlier builds wrote it. wantStateValuesOnly is the same image with each
// row-id slice emptied (withoutRowIDs), which is what this build writes.
const (
	wantState           = "484f4c534e5030330205656d7074790000026b76e807020161016106020305000000000000000300000000000000090000000000000003000100010303000000000000000500000000000000090000000000000003020000000000000004000000030400000000000000010900000000000000020000000000ffffffac0200032c01000000000000feffffffffffffff0700000000000000030000010103feffffffffffffff07000000000000002c01000000000000030300000005000000010000000001016201620602030a00000000000000060000000000000012000000000000000300010000035802000000000000fcffffffffffffff0e000000000000000300000100e941d0e4"
	wantStateValuesOnly = "484f4c534e5030330205656d7074790000026b76e807020161016106020305000000000000000300000000000000090000000000000003000100010303000000000000000500000000000000090000000000000000030400000000000000010900000000000000020000000000ffffffac0200032c01000000000000feffffffffffffff0700000000000000030000010103feffffffffffffff07000000000000002c01000000000000000001016201620602030a00000000000000060000000000000012000000000000000300010000035802000000000000fcffffffffffffff0e0000000000000003000001004b2c620c"
)

// fromHex decodes a pinned image.
func fromHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// withoutRowIDs is what a decoded image re-encodes to: the same bytes
// behind the current magic with each copy's row-id slice emptied, under
// its own checksum. It walks the grammar of an image that decoded, copying
// every byte but the row ids.
func withoutRowIDs(img []byte) []byte {
	b, off := img[:len(img)-4], len(snapMagic)
	out := append(make([]byte, 0, len(b)), snapMagic[:]...)
	uv := func() int {
		v, n := binary.Uvarint(b[off:])
		out, off = append(out, b[off:off+n]...), off+n
		return int(v)
	}
	keep := func(n int) { out, off = append(out, b[off:off+n]...), off+n }
	for range uv() { // tables: name, live, columns
		keep(uv())
		uv()
		for range uv() { // columns: name in the table, own name, rows, parts
			keep(uv())
			keep(uv())
			uv()
			for range uv() { // parts: values, tombstones, index flag
				keep(8 * uv())
				keep(uv())
				hasCrack := b[off] == 1
				keep(1)
				if hasCrack { // copy, row ids, boundaries, sorted flag
					keep(8 * uv())
					rows, n := binary.Uvarint(b[off:])
					out, off = append(out, 0), off+n+4*int(rows)
					for range uv() {
						keep(8)
						uv()
					}
					keep(1)
				}
			}
		}
	}
	return seal(out)
}

// TestEncodingUnchanged pins the on-disk bytes of both encoders. The
// records and wantState were produced by the append-per-value encoders
// this package used before it sized its output, so a pass proves the sized
// encoders write the same bytes and that existing data directories open.
// An image with row ids decodes with them dropped: wantState re-encodes to
// wantStateValuesOnly, pinnedState's image.
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
	const wantValuesOnly = "484f4c534e50303301017604010161016106020305000000000000000300000000000000090000000000000003000100010205000000000000000900000000000000000106000000000000000100032c01000000000000feffffffffffffff0700000000000000030000010102feffffffffffffff2c0100000000000000000139cedaca"
	if h := hex.EncodeToString(withoutRowIDs(fromHex(wantState))); h != wantStateValuesOnly {
		t.Fatalf("wantState without its row ids:\n got %s\nwant %s", h, wantStateValuesOnly)
	}
	for _, c := range []struct {
		name string
		st   engine.EngineState
		want string
	}{{"state", pinnedState(), wantStateValuesOnly}, {"values-only state", pinnedValuesOnlyState(), wantValuesOnly}} {
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
	st, err := DecodeState(fromHex(wantState))
	if err != nil {
		t.Fatalf("the image with row ids does not decode: %v", err)
	}
	if h := hex.EncodeToString(EncodeState(st)); h != wantStateValuesOnly {
		t.Fatalf("the image with row ids re-encodes to\n %s\nwant %s", h, wantStateValuesOnly)
	}
}

// TestFormat02Reads: an image of the previous format, 02, whose grammar is a
// subset of 03's and whose every copy carries row ids, decodes to the state
// it holds with the row ids dropped.
func TestFormat02Reads(t *testing.T) {
	img := fromHex(wantState)
	copy(img, snapMagic02[:])
	st, err := DecodeState(seal(img[:len(img)-4]))
	if err != nil {
		t.Fatalf("format 02 image: %v", err)
	}
	if !bytes.Equal(EncodeState(st), EncodeState(pinnedState())) {
		t.Fatalf("format 02 image decodes to another state")
	}
}

// TestImageWithRowIDsRestores: an image an earlier build wrote of a live
// engine — two parts per column, column a's copies with the row ids its
// delete of a=7 attached, b's values-only — decodes, restores and answers,
// and its first DELETE resolves through the copies the restore left
// values-only.
func TestImageWithRowIDsRestores(t *testing.T) {
	const img = "484f4c534e50303301026b7609020161046b762e610a0205050000000000000009000000000000000700000000000000080000000000000004000000000000000500000100000104040000000000000005000000000000000900000000000000080000000000000004080000000000000002000000060000000401000000000000000003000000000000000005000000000000000107000000000000000200050300000000000000010000000000000002000000000000000600000000000000000000000000000005000000000001050000000000000000010000000000000002000000000000000300000000000000060000000000000005090000000300000005000000010000000700000004010000000000000001030000000000000003050000000000000004070000000000000005000162046b762e620a020532000000000000005a0000000000000046000000000000005000000000000000280000000000000005000001000001042800000000000000320000000000000050000000000000005a00000000000000000219000000000000000041000000000000000200051e000000000000000a0000000000000014000000000000003c00000000000000000000000000000005000000000001050a00000000000000140000000000000000000000000000001e000000000000003c000000000000000002190000000000000003410000000000000005008cbdaac2"
	st, err := DecodeState(fromHex(img))
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.Config{Strategy: engine.StrategyHolistic, Seed: 42, Shards: 2})
	defer e.Close()
	if err := e.RestoreState(st); err != nil {
		t.Fatalf("restore: %v", err)
	}
	again, err := e.CaptureState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeState(again), withoutRowIDs(fromHex(img))) {
		t.Fatal("the restored engine captures to another state than the image without its row ids")
	}
	// a was 5 3 9 1 7 2 8 6 4 0 and b ten times a; a=7 (row 4) is deleted.
	expect(t, e, "a", 0, 10, 9, 38)
	expect(t, e, "b", 0, 100, 9, 380)
	tb, _ := e.Table("kv")
	if n, err := tb.DeleteWhereIn("a", []int64{3, 7}); err != nil || n != 1 {
		t.Fatalf("DeleteWhereIn(a, 3, 7) = %d, %v; want 1 (a=3, row 1), nil", n, err)
	}
	expect(t, e, "a", 0, 10, 8, 35)
	expect(t, e, "b", 0, 100, 8, 350)
}

// TestDecodedPartsKeepMergeSlack: a decoded part's base and copy come with
// the spare capacity a merge leaves (cracker.Slack), so the log replayed
// after a snapshot merges its first rows without moving them.
func TestDecodedPartsKeepMergeSlack(t *testing.T) {
	e := engine.New(engine.Config{Strategy: engine.StrategyHolistic, Seed: 42, Shards: 2})
	defer e.Close()
	tb := seedTable(t, e, 12_800)
	for _, col := range []string{"a", "b"} {
		if _, err := e.Select("kv", col, 100, 9000); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := tb.DeleteWhereIn("a", []int64{7, 8}); err != nil || n != 2 {
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
			if n := len(p.CrackVals); !p.HasCrack || cap(p.CrackVals) != n+n/64 {
				t.Fatalf("%s part %d: copy of %d values has capacity %d, want %d", c.Name, i, n, cap(p.CrackVals), n+n/64)
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

	// A copy's row ids are none or one per value. The image ends with the
	// two-value copy's empty row-id slice, no boundaries and the sorted flag.
	img = EncodeState(engine.EngineState{Tables: []engine.TableState{{Name: "t", Order: []string{"a"},
		Columns: []shard.ColumnSnapshot{{Name: "a", Parts: []shard.PartSnapshot{{Vals: []int64{7, 8}, Deleted: []bool{false, false},
			HasCrack: true, CrackVals: []int64{7, 8}}}}}}}})
	head := img[:len(img)-4-3]
	for rows := range 4 {
		body := binary.AppendUvarint(slices.Clone(head), uint64(rows))
		body = append(append(body, make([]byte, 4*rows)...), 0, 0)
		if _, err := DecodeState(seal(body)); (err == nil) != (rows == 0 || rows == 2) {
			t.Errorf("%d row ids for a copy of 2 values: %v", rows, err)
		}
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
// re-encodes to the same image with each copy's row ids emptied and a
// format 02 magic as 03 (withoutRowIDs), so a decoder that drops any other
// byte fails. The input is taken both as a whole image and as a body sealed
// with its CRC, so the fuzzer reaches the decoder behind the checksum.
func FuzzDecodeState(f *testing.F) {
	img := fromHex(wantState)
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
		if got, want := EncodeState(st), withoutRowIDs(sealed); !bytes.Equal(got, want) {
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
				CrackVals: make([]int64, per), Sorted: sorted}
			for i := range per {
				ps.Vals[i] = int64((i*7919 + p) % per)
				ps.CrackVals[i] = int64(i)
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
