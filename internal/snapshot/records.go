package snapshot

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"unsafe"
)

// Statement-record opcodes. Records are logical, not textual SQL: a delete
// carries the row ids its statement resolved (replay by value could pick a
// different "first live row" on a multi-column table), and an insert
// carries its first row id so replay after a snapshot skips the prefix the
// snapshot already covers.
const (
	opCreateTable byte = 1
	opAddColumn   byte = 2
	opInsert      byte = 3
	opDelete      byte = 4
)

// Record is one logged statement in decoded form.
type Record struct {
	Op    byte
	Table string
	// Col and Vals carry an addColumn's name and full contents.
	Col  string
	Vals []int64
	// First and Rows carry an insert batch: row ids First..First+len-1.
	First uint32
	Rows  [][]int64
	// DelRows carries a delete's resolved global row ids.
	DelRows []uint32
}

// The appends never grow dst: every encoder sizes its output first.

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendInt64s(dst []byte, vs []int64) []byte {
	return appendValues(binary.AppendUvarint(dst, uint64(len(vs))), vs)
}

// appendValues appends vs in the records' byte order, 8 little-endian
// bytes per value: the portable encoding that valueBytes views in place on
// a little-endian host.
func appendValues(dst []byte, vs []int64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

// nativeLittleEndian reports whether the host lays an int64 out in the
// records' byte order.
var nativeLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// valueBytes returns vs as a record stores them: on a little-endian host a
// view of vs' own memory, no copy, and elsewhere an encoded copy.
func valueBytes(vs []int64) []byte {
	if !nativeLittleEndian {
		return appendValues(make([]byte, 0, 8*len(vs)), vs)
	}
	return int64View(vs)
}

// int64View is vs' memory as bytes, in the host's byte order.
func int64View(vs []int64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), 8*len(vs))
}

func appendU32s(dst []byte, vs []uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	return dst
}

// uvarintLen is the encoded length of x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func stringSize(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// sliceSize is the encoded length of a length-prefixed slice of n values of
// width bytes each.
func sliceSize(n, width int) int { return uvarintLen(uint64(n)) + n*width }

// recordSize is the exact encoded length of r.
func recordSize(r Record) int {
	n := 1 + stringSize(r.Table)
	switch r.Op {
	case opAddColumn:
		n += stringSize(r.Col) + sliceSize(len(r.Vals), 8)
	case opInsert:
		cols := insertCols(r.Rows)
		n += 4 + uvarintLen(uint64(len(r.Rows))) + uvarintLen(uint64(cols)) + 8*len(r.Rows)*cols
	case opDelete:
		n += sliceSize(len(r.DelRows), 4)
	}
	return n
}

func insertCols(rows [][]int64) int {
	if len(rows) == 0 {
		return 0
	}
	return len(rows[0])
}

// EncodeRecord serializes one statement record as a WAL payload.
func EncodeRecord(r Record) []byte { return encodeRecord(0, r) }

// encodeRecord serializes r behind headroom zero bytes, in one allocation
// of the exact size. Store.append leaves wal.FrameHeaderSize bytes there
// for the log to frame the record in place.
func encodeRecord(headroom int, r Record) []byte {
	dst := appendRecordHead(make([]byte, headroom, headroom+recordSize(r)), r)
	if r.Op == opAddColumn {
		dst = appendValues(dst, r.Vals)
	}
	return dst
}

// appendRecordHead appends r's bytes up to an add-column record's values,
// which is all of any other record. An add-column head ends at the values'
// count; their bytes (appendValues, valueBytes) complete the record.
func appendRecordHead(dst []byte, r Record) []byte {
	dst = append(dst, r.Op)
	dst = appendString(dst, r.Table)
	switch r.Op {
	case opCreateTable:
	case opAddColumn:
		dst = appendString(dst, r.Col)
		dst = binary.AppendUvarint(dst, uint64(len(r.Vals)))
	case opInsert:
		dst = binary.LittleEndian.AppendUint32(dst, r.First)
		dst = binary.AppendUvarint(dst, uint64(len(r.Rows)))
		dst = binary.AppendUvarint(dst, uint64(insertCols(r.Rows)))
		for _, row := range r.Rows {
			dst = appendValues(dst, row)
		}
	case opDelete:
		dst = appendU32s(dst, r.DelRows)
	}
	return dst
}

// dec is a cursor over one record payload or snapshot image. The first
// malformed field records err and empties the cursor, so every later read
// returns a zero value without reading or allocating and the caller checks
// err once. Arbitrary bytes never panic (the WAL's and the image's CRCs
// make corruption here unreachable in practice, but the decoder does not
// rely on them).
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: "+format, args...)
	}
	d.off = len(d.b)
}

// end returns the first error, or one for bytes left over.
func (d *dec) end() error {
	if d.off != len(d.b) {
		d.fail("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}

// uvarint reads one uvarint in its shortest form. The encoders write no
// other, so a padded one is corruption, and rejecting it keeps every
// decoded record and image re-encodable to the bytes it came from.
func (d *dec) uvarint() uint64 {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 || n != uvarintLen(v) {
		d.fail("bad uvarint at %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) bytes(n int) []byte {
	if n < 0 || n > len(d.b)-d.off {
		d.fail("truncated field at %d (want %d bytes, have %d)", d.off, n, len(d.b)-d.off)
		return nil
	}
	d.off += n
	return d.b[d.off-n : d.off]
}

// count reads a length prefix of items that encode to at least width bytes
// each. It is checked by division against the bytes left, so no length,
// however large, overflows the check or sizes an allocation past them.
func (d *dec) count(width int, what string) int {
	n := d.uvarint()
	if n > uint64(len(d.b)-d.off)/uint64(width) {
		d.fail("%s count %d exceeds payload", what, n)
		return 0
	}
	return int(n)
}

func (d *dec) string() string { return string(d.bytes(d.count(1, "string"))) }

func (d *dec) u32() uint32 {
	if s := d.bytes(4); len(s) == 4 {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

func (d *dec) i64() int64 {
	if s := d.bytes(8); len(s) == 8 {
		return int64(binary.LittleEndian.Uint64(s))
	}
	return 0
}

// getInt64s decodes s, whose length is a multiple of 8, in one loop, into a
// slice with room for spare more values.
func getInt64s(s []byte, spare int) []int64 {
	vs := make([]int64, len(s)/8, len(s)/8+spare)
	for i := range vs {
		vs[i] = int64(binary.LittleEndian.Uint64(s[8*i:]))
	}
	return vs
}

func (d *dec) int64s() []int64 { return getInt64s(d.bytes(8*d.count(8, "int64 slice")), 0) }

func (d *dec) u32s() []uint32 {
	s := d.bytes(4 * d.count(4, "uint32 slice"))
	vs := make([]uint32, len(s)/4)
	for i := range vs {
		vs[i] = binary.LittleEndian.Uint32(s[4*i:])
	}
	return vs
}

// DecodeRecord parses one WAL payload. It never panics on arbitrary input.
func DecodeRecord(b []byte) (Record, error) {
	if len(b) == 0 {
		return Record{}, fmt.Errorf("snapshot: empty record")
	}
	d := &dec{b: b, off: 1}
	r := Record{Op: b[0], Table: d.string()}
	switch r.Op {
	case opCreateTable:
	case opAddColumn:
		r.Col, r.Vals = d.string(), d.int64s()
	case opInsert:
		r.First = d.u32()
		nrows, ncols := d.uvarint(), d.uvarint()
		// The engine logs no row without values, so rows and columns are
		// both present or both absent.
		if (nrows == 0) != (ncols == 0) || nrows > uint64(len(b)-d.off)/8/max(ncols, 1) {
			d.fail("insert of %d×%d exceeds payload", nrows, ncols)
			break
		}
		vals := getInt64s(d.bytes(int(nrows*ncols*8)), 0)
		r.Rows = make([][]int64, nrows)
		for i, c := 0, int(ncols); i < len(r.Rows); i++ {
			r.Rows[i] = vals[i*c : (i+1)*c : (i+1)*c]
		}
	case opDelete:
		r.DelRows = d.u32s()
	default:
		return Record{}, fmt.Errorf("snapshot: unknown record op %d", r.Op)
	}
	if err := d.end(); err != nil {
		return Record{}, err
	}
	return r, nil
}
