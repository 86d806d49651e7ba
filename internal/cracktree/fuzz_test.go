package cracktree

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// FuzzTreeMatchesModel runs a byte-coded program against the tree and the
// sorted-slice model side by side, calling Check (through compare) after
// every mutator. Each instruction is an opcode byte followed by a 16-bit key
// (0 and 0xffff stand for the extreme int64 keys) and two argument bytes:
//
//	0, 1  insert or overwrite key, at a position picked by the first argument
//	      inside the room its neighbours leave
//	2     insert a run of 1 + arg1 keys from key with stride 1 + arg2%16,
//	      descending when arg2 >= 128 — enough to fill and split blocks
//	3     Locate key
//	4     FloorPos at position key
//	5     WalkFrom key, stopping after 1 + arg1 visits
//	6, 7  Rewrite above key, ascending for 6 and descending for 7, by the
//	      position delta arg1 (as a signed byte, clamped to keep the order)
//	      and the sum delta arg2
func FuzzTreeMatchesModel(f *testing.F) {
	ins := func(op byte, key uint16, a1, a2 byte) []byte {
		return []byte{op, byte(key >> 8), byte(key), a1, a2}
	}
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	// Descending single inserts: every one lands at index 0 of block 0.
	f.Add(cat(ins(0, 500, 10, 0), ins(0, 400, 10, 0), ins(0, 300, 0, 0), ins(3, 350, 0, 0), ins(0, 0, 0, 0), ins(4, 5, 0, 0)))
	// An ascending run of 256 fills two blocks; a descending run below it
	// fills a third at the front; rewrites move both ways across edges.
	f.Add(cat(ins(2, 1000, 255, 3), ins(2, 999, 255, 128+1), ins(3, 1300, 0, 0),
		ins(6, 1200, 0xfd, 9), ins(7, 700, 5, 1), ins(5, 900, 200, 0), ins(4, 300, 0, 0), ins(0, 0xffff, 0, 0)))
	// Interleaved runs split full blocks in the middle and at their ends.
	f.Add(cat(ins(2, 2000, 200, 7), ins(2, 2001, 200, 7), ins(2, 2002, 150, 128+14),
		ins(1, 1999, 99, 0), ins(7, 1999, 0x80, 2), ins(3, 2700, 0, 0), ins(5, 2000, 255, 0)))
	f.Fuzz(func(t *testing.T, prog []byte) {
		var tr Tree
		var m model
		n := 1 << 20
		key := func(v uint16) int64 {
			switch v {
			case 0:
				return math.MinInt64
			case math.MaxUint16:
				return math.MaxInt64
			}
			return int64(v)
		}
		insert := func(k int64, arg byte) {
			lo, hi := m.room(k, n)
			pos := lo + int(arg)*(hi-lo)/255
			sum := k * 7919
			if tr.Insert(k, pos, sum) != m.insert(k, pos, sum) {
				t.Fatalf("Insert(%d) disagrees on whether the key is new", k)
			}
		}
		// The model inserts in linear time: 48 instructions, up to 12 288
		// boundaries, keep an input in the milliseconds.
		prog = prog[:min(len(prog), 48*5)]
		for ; len(prog) >= 5; prog = prog[5:] {
			op, v, a1, a2 := prog[0]%8, binary.BigEndian.Uint16(prog[1:]), prog[3], prog[4]
			k := key(v)
			var probes []int64
			var positions []int
			switch op {
			case 0, 1:
				insert(k, a1)
				probes = []int64{k - 1, k, k + 1}
			case 2:
				step := int64(1 + a2%16)
				if a2 >= 128 {
					step = -step
				}
				for i := range int64(1 + int(a1)) {
					insert(k+i*step, a1)
				}
				probes = []int64{k - 1, k, k + int64(a1)*step}
			case 3:
				probes = []int64{k}
			case 4:
				positions = []int{int(v) * 16}
				if len(m.pos) > 0 {
					p := m.pos[int(a1)*len(m.pos)/256]
					positions = append(positions, p-1, p, p+1)
				}
			case 5:
				var got, want [][3]int64
				limit := 1 + int(a1)
				tr.WalkFrom(k, func(key int64, pos int, sum int64) bool {
					got = append(got, [3]int64{key, int64(pos), sum})
					return len(got) < limit
				})
				for i := 0; i < len(m.keys) && len(want) < limit; i++ {
					if m.keys[i] >= k {
						want = append(want, [3]int64{m.keys[i], int64(m.pos[i]), m.sums[i]})
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("WalkFrom(%d) visited %v, want %v", k, got, want)
				}
			case 6, 7:
				minDelta, ok := m.shiftRange(k)
				if !ok {
					continue
				}
				dpos, dsum := max(int(int8(a1)), minDelta), int64(a2)
				down := op == 7
				var seen []int64
				tr.Rewrite(k, down, func(key int64, pos int, sum int64) (int, int64) {
					seen = append(seen, key)
					return pos + dpos, sum + dsum
				})
				want := m.rewrite(k, down, func(_ int64, pos int, sum int64) (int, int64) {
					return pos + dpos, sum + dsum
				})
				if !slices.Equal(seen, want) {
					t.Fatalf("Rewrite(%d, %v) visited %v, want %v", k, down, seen, want)
				}
				n += max(dpos, 0)
				probes = []int64{k, k + 1}
			}
			if err := compare(&tr, &m, n, probes, positions); err != nil {
				t.Fatal(err)
			}
		}
	})
}
