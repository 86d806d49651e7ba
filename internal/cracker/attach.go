package cracker

import (
	"fmt"
	"math"
	"math/bits"
)

// Attaching row ids to a values-only copy.
//
// A select counts and sums values, so a copy is built, cracked, sorted and
// merged without the row ids beside it; only a DELETE's first-live lookup
// (MinRowOf) needs to know which base row an entry is. AttachRows gives the
// copy its row ids in one pass over the live base: each base value goes to
// the next free slot of the piece that holds its value, in fresh arrays that
// replace the copy's. Within a piece the order of values carries no
// information and the piece holds exactly the live base values that fall in
// its key range, so refilling every piece from the base leaves boundaries,
// positions and sums as they were.
//
// The piece a value falls in is found in two steps: a table over the key
// range, one slot per 2^shift values and about four slots per piece, narrows
// the boundary keys to the few in the value's slot, and a binary search
// among those finishes. A sorted index's pieces are its runs of equal values.

// AttachRows gives a values-only index its row ids: base is the column the
// copy was built from, by local position, the row id of base[i] is row0 +
// i*stride (wrapping), and bit i%64 of dead[i/64] marks a tombstoned row
// the copy does not hold (nil: none). It makes one pass over base, which
// the owner keeps apart from every other call, and does nothing when row
// ids are already attached. Each piece must receive as many live base values as it
// holds, adding to the same sum; if not, the live base is not the copy's
// multiset, AttachRows says so and the index is left as it was.
func (ix *Index) AttachRows(base []int64, row0, stride uint32, dead []uint64) error {
	if ix.rows != nil {
		return nil
	}
	keys, fills := ix.pieceFills()
	var pm pieceMap
	pm.build(keys)
	vals, rows := make([]int64, ix.Len()), make([]uint32, ix.Len())
	row := row0
	for i, v := range base {
		g := row
		row += stride
		if dead != nil && dead[i/64]&(1<<(i%64)) != 0 {
			continue
		}
		f := &fills[pm.find(v)]
		at := f.at
		if at >= f.end || uint(at) >= uint(len(vals)) || uint(at) >= uint(len(rows)) {
			return fmt.Errorf("cracker: attach: the live base holds more values than the copy's piece ending at %d", f.end)
		}
		vals[at], rows[at] = v, g
		f.at, f.sum = at+1, f.sum+v
	}
	for _, f := range fills {
		if f.at != f.end || f.sum != 0 {
			return fmt.Errorf("cracker: attach: the live base's values ending at %d are not the copy's", f.end)
		}
	}
	ix.vals, ix.rows, ix.off, ix.ref = vals, rows, nil, 0 // a narrow copy is refilled wide
	return nil
}

// fill is one piece being refilled from the base: the next position to
// write, the piece's end, and the sum written so far less the sum the copy
// held there, which the pass must bring back to 0.
type fill struct {
	at, end int
	sum     int64
}

// pieceFills lists the copy's pieces for a refill: keys[j] is the least
// value piece j+1 may hold, so piece j holds the values in [keys[j-1],
// keys[j]), and fills[j] starts at its first position owing its sum. A
// cracked copy's keys are its boundaries, whose sums give each piece's; a
// sorted copy's pieces are its runs of equal values.
func (ix *Index) pieceFills() (keys []int64, fills []fill) {
	n := ix.Len()
	var below []int64 // the sum of the copy before each piece, then all of it
	if ix.sorted {
		fills, below = append(fills, fill{}), append(below, 0)
		for i := 1; i < n; i++ {
			if v := ix.vals[i]; v != ix.vals[i-1] {
				keys, fills, below = append(keys, v), append(fills, fill{at: i}), append(below, ix.pre[i])
			}
		}
		below = append(below, ix.pre[n])
	} else {
		m := ix.tree.Len() + 1
		keys, fills, below = make([]int64, 0, m-1), make([]fill, 1, m), make([]int64, 1, m+1)
		ix.tree.Walk(func(key int64, pos int, sum int64) bool {
			keys, fills, below = append(keys, key), append(fills, fill{at: pos}), append(below, sum)
			return true
		})
		last := fills[len(fills)-1].at
		below = append(below, below[len(below)-1]+ix.sumRange(last, n))
	}
	for j := range fills {
		fills[j].sum = below[j] - below[j+1]
		if j+1 < len(fills) {
			fills[j].end = fills[j+1].at
		} else {
			fills[j].end = n
		}
	}
	return keys, fills
}

// pieceMap finds the piece of a value among ascending keys: the number of
// keys <= the value. slot[s] is the number of keys below k0 + s<<shift, k0
// being the least key, so the keys that can decide a value in slot s are
// keys[slot[s]:slot[s+1]]; values past the last slot are in it.
type pieceMap struct {
	keys  []int64
	k0    int64
	shift uint
	last  uint64
	slot  []uint32
}

// maxSlotBits caps the table at 2^16 slots (256 KiB).
const maxSlotBits = 16

func (m *pieceMap) build(keys []int64) {
	m.keys = keys
	if len(keys) == 0 { // every value is in piece 0: one empty slot from the top
		m.k0, m.slot = math.MaxInt64, []uint32{0, 0}
		return
	}
	m.k0 = keys[0]
	span := uint64(keys[len(keys)-1]) - uint64(m.k0)
	want := min(bits.Len(uint(len(keys)))+2, maxSlotBits) // ~4 slots a key
	if w := bits.Len64(span); w > want {
		m.shift = uint(w - want)
	}
	n := int(span>>m.shift) + 1
	m.last, m.slot = uint64(n-1), make([]uint32, n+1)
	j := 0
	for s := range n {
		lo := uint64(s) << m.shift // slot s's least value, as a distance from k0
		for j < len(keys) && uint64(keys[j])-uint64(m.k0) < lo {
			j++
		}
		m.slot[s] = uint32(j)
	}
	m.slot[n] = uint32(len(keys))
}

// find returns the number of keys <= v.
func (m *pieceMap) find(v int64) int {
	if v < m.k0 {
		return 0
	}
	s := min((uint64(v)-uint64(m.k0))>>m.shift, m.last)
	lo, hi := int(m.slot[s]), int(m.slot[s+1])
	for lo < hi {
		if h := int(uint(lo+hi) >> 1); m.keys[h] <= v {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}
