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
// format. 02 has one index block per part, with a sorted flag.
var snapMagic = [8]byte{'H', 'O', 'L', 'S', 'N', 'P', '0', '2'}

// EncodeState serializes a captured engine state as one snapshot file
// image: magic, body, CRC32 trailer over everything before it. The CRC
// makes torn or bit-flipped snapshot files detectable at load — recovery
// falls back to an older snapshot (or cold start) rather than restoring
// garbage.
func EncodeState(st engine.EngineState) []byte {
	dst := append([]byte(nil), snapMagic[:]...)
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
			dst = appendU32s(dst, p.CrackRows)
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

func (d *dec) bool() (bool, error) {
	s, err := d.bytes(1)
	if err != nil {
		return false, err
	}
	if s[0] > 1 {
		return false, fmt.Errorf("snapshot: invalid bool %d at %d", s[0], d.off-1)
	}
	return s[0] == 1, nil
}

func (d *dec) bools() ([]bool, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.b)-d.off) {
		return nil, fmt.Errorf("snapshot: bool slice length %d exceeds payload", n)
	}
	bs := make([]bool, n)
	for i := range bs {
		if bs[i], err = d.bool(); err != nil {
			return nil, err
		}
	}
	return bs, nil
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
	if [8]byte(b[:8]) != snapMagic {
		return engine.EngineState{}, fmt.Errorf("snapshot: format %s, this build reads %s", b[6:8], snapMagic[6:])
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return engine.EngineState{}, fmt.Errorf("snapshot: checksum mismatch")
	}
	d := &dec{b: body, off: len(snapMagic)}
	ntables, err := d.uvarint()
	if err != nil {
		return engine.EngineState{}, err
	}
	if ntables > uint64(len(body)) {
		return engine.EngineState{}, fmt.Errorf("snapshot: table count %d exceeds payload", ntables)
	}
	st := engine.EngineState{Tables: make([]engine.TableState, 0, ntables)}
	for ti := uint64(0); ti < ntables; ti++ {
		var ts engine.TableState
		if ts.Name, err = d.string(); err != nil {
			return engine.EngineState{}, err
		}
		live, err := d.uvarint()
		if err != nil {
			return engine.EngineState{}, err
		}
		ts.Live = int64(live)
		ncols, err := d.uvarint()
		if err != nil {
			return engine.EngineState{}, err
		}
		if ncols > uint64(len(body)) {
			return engine.EngineState{}, fmt.Errorf("snapshot: column count %d exceeds payload", ncols)
		}
		for ci := uint64(0); ci < ncols; ci++ {
			cname, err := d.string()
			if err != nil {
				return engine.EngineState{}, err
			}
			cs, err := d.columnSnapshot()
			if err != nil {
				return engine.EngineState{}, err
			}
			ts.Order = append(ts.Order, cname)
			ts.Columns = append(ts.Columns, cs)
		}
		st.Tables = append(st.Tables, ts)
	}
	if d.off != len(body) {
		return engine.EngineState{}, fmt.Errorf("snapshot: %d trailing bytes", len(body)-d.off)
	}
	return st, nil
}

func (d *dec) columnSnapshot() (shard.ColumnSnapshot, error) {
	var c shard.ColumnSnapshot
	var err error
	if c.Name, err = d.string(); err != nil {
		return c, err
	}
	rows, err := d.uvarint()
	if err != nil {
		return c, err
	}
	c.Rows = int64(rows)
	nparts, err := d.uvarint()
	if err != nil {
		return c, err
	}
	if nparts > uint64(len(d.b)) {
		return c, fmt.Errorf("snapshot: part count %d exceeds payload", nparts)
	}
	for pi := uint64(0); pi < nparts; pi++ {
		var p shard.PartSnapshot
		if p.Vals, err = d.int64s(); err != nil {
			return c, err
		}
		if p.Deleted, err = d.bools(); err != nil {
			return c, err
		}
		if p.HasCrack, err = d.bool(); err != nil {
			return c, err
		}
		if p.HasCrack {
			if p.CrackVals, err = d.int64s(); err != nil {
				return c, err
			}
			if p.CrackRows, err = d.u32s(); err != nil {
				return c, err
			}
			nb, err := d.uvarint()
			if err != nil {
				return c, err
			}
			if nb > uint64(len(d.b)) {
				return c, fmt.Errorf("snapshot: boundary count %d exceeds payload", nb)
			}
			p.Boundaries = make([]cracker.Boundary, nb)
			for bi := range p.Boundaries {
				key, err := d.i64()
				if err != nil {
					return c, err
				}
				pos, err := d.uvarint()
				if err != nil {
					return c, err
				}
				p.Boundaries[bi] = cracker.Boundary{Key: key, Pos: int(pos)}
			}
			if p.Sorted, err = d.bool(); err != nil {
				return c, err
			}
		}
		c.Parts = append(c.Parts, p)
	}
	return c, nil
}
