package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"holistic/internal/cracker"
	"holistic/internal/engine"
	"holistic/internal/shard"
)

// snapMagic identifies a snapshot file; the trailing two bytes version the
// format. 02 has one index block per part, with a sorted flag; 03 lets a
// copy write no row ids (a zero-length slice). 02's grammar is a subset of
// 03's, so the decoder reads both. This build writes no row ids and drops
// those an older image holds: the first delete attaches them from the base.
var snapMagic = [8]byte{'H', 'O', 'L', 'S', 'N', 'P', '0', '3'}

// snapMagic02 is the previous format's magic, still read.
var snapMagic02 = [8]byte{'H', 'O', 'L', 'S', 'N', 'P', '0', '2'}

// EncodeState serializes a captured engine state as one snapshot file
// image: magic, body, CRC32 trailer over everything before it. The CRC
// makes torn or bit-flipped snapshot files detectable at load — recovery
// falls back to an older snapshot (or cold start) rather than restoring
// garbage.
func EncodeState(st engine.EngineState) []byte {
	dst := make([]byte, 0, stateSize(st))
	dst = append(dst, snapMagic[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(st.Tables)))
	for _, t := range st.Tables {
		dst = appendString(dst, t.Name)
		dst = binary.AppendUvarint(dst, uint64(t.Live))
		dst = binary.AppendUvarint(dst, uint64(len(t.Order)))
		for i, cname := range t.Order {
			dst = appendString(dst, cname)
			dst = appendColumnSnapshot(dst, t.Columns[i])
		}
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst))
}

// stateSize is the exact length of EncodeState's image.
func stateSize(st engine.EngineState) int {
	n := len(snapMagic) + uvarintLen(uint64(len(st.Tables))) + 4
	for _, t := range st.Tables {
		n += stringSize(t.Name) + uvarintLen(uint64(t.Live)) + uvarintLen(uint64(len(t.Order)))
		for i, cname := range t.Order {
			c := t.Columns[i]
			n += stringSize(cname) + stringSize(c.Name) + uvarintLen(uint64(c.Rows)) + uvarintLen(uint64(len(c.Parts)))
			for _, p := range c.Parts {
				n += sliceSize(len(p.Vals), 8) + sliceSize(len(p.Deleted), 1) + 1
				if p.HasCrack {
					n += sliceSize(len(p.CrackVals), 8) + sliceSize(0, 4) + uvarintLen(uint64(len(p.Boundaries))) + 1
					for _, b := range p.Boundaries {
						n += 8 + uvarintLen(uint64(b.Pos))
					}
				}
			}
		}
	}
	return n
}

func appendColumnSnapshot(dst []byte, c shard.ColumnSnapshot) []byte {
	dst = appendString(dst, c.Name)
	dst = binary.AppendUvarint(dst, uint64(c.Rows))
	dst = binary.AppendUvarint(dst, uint64(len(c.Parts)))
	for _, p := range c.Parts {
		dst = appendInt64s(dst, p.Vals)
		dst = appendBools(dst, p.Deleted)
		dst = appendBool(dst, p.HasCrack)
		if p.HasCrack {
			dst = appendInt64s(dst, p.CrackVals)
			dst = append(dst, 0) // no row ids
			dst = binary.AppendUvarint(dst, uint64(len(p.Boundaries)))
			for _, b := range p.Boundaries {
				dst = binary.LittleEndian.AppendUint64(dst, uint64(b.Key))
				dst = binary.AppendUvarint(dst, uint64(b.Pos))
			}
			dst = appendBool(dst, p.Sorted)
		}
	}
	return dst
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendBools(dst []byte, bs []bool) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(bs)))
	for _, b := range bs {
		dst = appendBool(dst, b)
	}
	return dst
}

// bool reads one byte that must be 0 or 1.
func (d *dec) bool() bool {
	s := d.bytes(1)
	if len(s) == 1 && s[0] > 1 {
		d.fail("invalid bool %d at %d", s[0], d.off-1)
	}
	return len(s) == 1 && s[0] == 1
}

func (d *dec) bools() []bool {
	s := d.bytes(d.count(1, "bool slice"))
	bs := make([]bool, len(s))
	for i, b := range s {
		if b > 1 {
			d.fail("invalid bool %d at %d", b, d.off-len(s)+i)
			return nil
		}
		bs[i] = b == 1
	}
	return bs
}

// partInt64s decodes one of a part's per-row arrays with the
// spare capacity a merge that moves it leaves (cracker.Slack): the log
// replayed after the snapshot then merges its first rows in place, where an
// exact array would be copied whole by the first insert.
func (d *dec) partInt64s() []int64 {
	s := d.bytes(8 * d.count(8, "int64 slice"))
	return getInt64s(s, cracker.Slack(len(s)/8))
}

// DecodeState parses a snapshot file image, verifying magic and CRC. It
// never panics on arbitrary input; any mismatch is an error, restoring
// nothing.
func DecodeState(b []byte) (engine.EngineState, error) {
	if len(b) < len(snapMagic)+4 {
		return engine.EngineState{}, fmt.Errorf("snapshot: file too short (%d bytes)", len(b))
	}
	if [6]byte(b[:6]) != [6]byte(snapMagic[:6]) {
		return engine.EngineState{}, fmt.Errorf("snapshot: bad magic")
	}
	if m := [8]byte(b[:8]); m != snapMagic && m != snapMagic02 {
		return engine.EngineState{}, fmt.Errorf("snapshot: format %s, this build reads %s and %s", b[6:8], snapMagic02[6:], snapMagic[6:])
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return engine.EngineState{}, fmt.Errorf("snapshot: checksum mismatch")
	}
	// Each count is bounded by the smallest encoding of what it counts: a
	// table is at least 3 bytes, a column 4, a part 3, a boundary 9.
	d := &dec{b: body, off: len(snapMagic)}
	st := engine.EngineState{Tables: make([]engine.TableState, d.count(3, "table"))}
	for i := range st.Tables {
		t := &st.Tables[i]
		t.Name, t.Live = d.string(), int64(d.uvarint())
		t.Order = make([]string, d.count(4, "column"))
		t.Columns = make([]shard.ColumnSnapshot, len(t.Order))
		for j := range t.Order {
			t.Order[j] = d.string()
			c := &t.Columns[j]
			c.Name, c.Rows = d.string(), int64(d.uvarint())
			c.Parts = make([]shard.PartSnapshot, d.count(3, "part"))
			for k := range c.Parts {
				p := &c.Parts[k]
				p.Vals, p.Deleted, p.HasCrack = d.partInt64s(), d.bools(), d.bool()
				if p.HasCrack {
					p.CrackVals = d.partInt64s()
					if m := d.count(4, "row id"); m != 0 && m != len(p.CrackVals) {
						d.fail("%d row ids for a copy of %d values", m, len(p.CrackVals))
					} else {
						d.bytes(4 * m) // an older image's row ids, dropped
					}
					p.Boundaries = make([]cracker.Boundary, d.count(9, "boundary"))
					for l := range p.Boundaries {
						p.Boundaries[l] = cracker.Boundary{Key: d.i64(), Pos: int(d.uvarint())}
					}
					p.Sorted = d.bool()
				}
			}
		}
	}
	if err := d.end(); err != nil {
		return engine.EngineState{}, err
	}
	return st, nil
}
