package cracker

// FuzzRadixPartition is the differential check for radix-first coarse
// cracking: the same data and query sequence run through four oracles —
//
//  1. a radix-enabled index (threshold decoded from the input, low enough
//     that coarse passes actually fire);
//  2. the same index built straight from the data (NewFromBase), whose first
//     radix pass runs at construction;
//  3. a radix-disabled index (pure comparison cracking);
//  4. a naive scan of the original data.
//
// All four must agree on every range result, and both radix indexes must
// keep their structural invariants (Validate) and the full-column multiset. The
// data shape varies with the input: uniform, heavily duplicated, and skewed
// distributions with outliers all exercise different bucket geometries
// (empty buckets, single-bucket pieces, repeated radix levels).

import (
	"math/rand/v2"
	"slices"
	"testing"
)

func FuzzRadixPartition(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{9, 0xff, 0x80, 0x40, 0x20, 0x10, 0x08, 0x04, 0x02})
	f.Add([]byte("radix all the pieces"))
	f.Add([]byte{2, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		const n = 1 << 10
		domain := int64(1) << (8 + data[0]%16) // 2^8 .. 2^23
		shape := data[0] % 3
		radixMin := 16 << (data[1] % 5) // 16 .. 256: coarse passes fire often

		rng := rand.New(rand.NewPCG(uint64(data[0]), uint64(data[1])))
		orig := make([]int64, n)
		for i := range orig {
			switch shape {
			case 0: // uniform
				orig[i] = rng.Int64N(domain)
			case 1: // heavy duplicates
				orig[i] = rng.Int64N(16) * (domain / 16)
			default: // skewed low with rare outliers
				if rng.IntN(64) == 0 {
					orig[i] = domain - 1 - rng.Int64N(domain/8+1)
				} else {
					orig[i] = rng.Int64N(domain/64 + 1)
				}
			}
		}
		mk := func(radixMin int) *Index {
			vals := append([]int64(nil), orig...)
			rows := make([]uint32, n)
			for i := range rows {
				rows[i] = uint32(i)
			}
			ix := New(vals, rows)
			ix.SetRadixMinPiece(radixMin)
			return ix
		}
		radix := mk(radixMin)
		comparison := mk(0)
		fused := NewFromBase(orig, slices.Min(orig), slices.Max(orig), radixMin)

		for i := 2; i+2 < len(data); i += 3 {
			concurrent := data[i]&1 == 1
			lo := int64(data[i+1]) * (domain / 256)
			hi := int64(data[i+2]) * (domain / 256)
			if lo > hi {
				lo, hi = hi, lo
			}
			wc, ws := naiveCountSum(orig, lo, hi)
			for name, ix := range map[string]*Index{"radix": radix, "fused": fused, "comparison": comparison} {
				var c int
				var s int64
				if concurrent {
					c, s = ix.CountSumConcurrent(ix.CrackRangeConcurrent(lo, hi))
				} else {
					c, s = ix.CountSum(ix.CrackRange(lo, hi))
				}
				if c != wc || s != ws {
					t.Fatalf("%s [%d,%d): got %d/%d want %d/%d", name, lo, hi, c, s, wc, ws)
				}
			}
			for _, ix := range []*Index{radix, fused} {
				if err := ix.Validate(); err != nil {
					t.Fatalf("radix index after [%d,%d): %v", lo, hi, err)
				}
			}
		}

		// The radix indexes still hold exactly the original multiset, value
		// by value, with every row id paired to its original value — the
		// values-only build's once AttachRows gives it row ids.
		if err := fused.AttachRows(orig, 0, 1, nil); err != nil {
			t.Fatal(err)
		}
		for _, ix := range []*Index{radix, fused} {
			got := make(map[uint32]int64, n)
			for i, r := range ix.Rows() {
				got[r] = ix.AppendValues(nil)[i]
			}
			if len(got) != n {
				t.Fatalf("row ids collapsed: %d distinct of %d", len(got), n)
			}
			for r, v := range got {
				if orig[r] != v {
					t.Fatalf("row %d detached: value %d, want %d", r, v, orig[r])
				}
			}
		}
	})
}
