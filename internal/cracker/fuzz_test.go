package cracker

// FuzzCrackRange drives an index through an arbitrary interleaved sequence
// of crack operations — range cracks, point cracks, random refinements
// with and without a minimum piece size — decoded from the fuzz input,
// then checks the structural invariants:
//
//   - Validate: boundary positions in key order, piece value bounds hold,
//     every boundary sum equals a running scan;
//   - every select answer — positional (CrackRange + CountSum) and from the
//     boundary sums (CrackCountSum's direct answer from the crack it made,
//     LookupCountSum afterwards) — matches a naive scan of the original data,
//     count and sum, and a crack partitions exactly what the lookup estimated;
//   - count/sum over the full domain never drift.

import (
	"math/rand/v2"
	"testing"
)

func fuzzSeedIndex(n int, domain int64) (*Index, []int64) {
	rng := rand.New(rand.NewPCG(1, 2))
	vals := make([]int64, n)
	rows := make([]uint32, n)
	for i := range vals {
		vals[i] = rng.Int64N(domain)
		rows[i] = uint32(i)
	}
	orig := append([]int64(nil), vals...)
	return New(vals, rows), orig
}

func naiveCountSum(vals []int64, lo, hi int64) (int, int64) {
	count, sum := 0, int64(0)
	for _, v := range vals {
		if v >= lo && v < hi {
			count++
			sum += v
		}
	}
	return count, sum
}

func FuzzCrackRange(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0xff, 0x80, 0x40, 0x20, 0x10, 0x08, 0x04, 0x02, 0x01})
	f.Add([]byte("crack me gently"))
	f.Fuzz(func(t *testing.T, data []byte) {
		const n, domain = 512, int64(1 << 12)
		ix, orig := fuzzSeedIndex(n, domain)
		wantCount, wantSum := naiveCountSum(orig, 0, domain)

		// Decode (op, lo, hi) triples from the input bytes.
		for i := 0; i+2 < len(data); i += 3 {
			op := data[i] % 6
			lo := int64(data[i+1]) * (domain / 256)
			hi := int64(data[i+2]) * (domain / 256)
			if lo > hi {
				lo, hi = hi, lo
			}
			rng := rand.New(rand.NewPCG(uint64(data[i]), uint64(i)))
			switch op {
			case 0:
				from, to := ix.CrackRange(lo, hi)
				c, s := ix.CountSum(from, to)
				wc, ws := naiveCountSum(orig, lo, hi)
				if c != wc || s != ws {
					t.Fatalf("CrackRange[%d,%d): got %d/%d want %d/%d", lo, hi, c, s, wc, ws)
				}
			case 1:
				_, _, estimate, _ := ix.LookupCountSum(lo, hi)
				before := ix.Work()
				c, s := ix.CrackCountSum(lo, hi)
				wc, ws := naiveCountSum(orig, lo, hi)
				if c != wc || s != ws {
					t.Fatalf("CrackCountSum[%d,%d): got %d/%d want %d/%d", lo, hi, c, s, wc, ws)
				}
				if did := ix.Work() - before; did != int64(estimate) {
					t.Fatalf("CrackCountSum[%d,%d) partitioned %d values, the lookup estimated %d", lo, hi, did, estimate)
				}
				if err := ix.Validate(); err != nil {
					t.Fatalf("after CrackCountSum[%d,%d): %v", lo, hi, err)
				}
				if lc, ls, _, ok := ix.LookupCountSum(lo, hi); ok != (lo < hi) || lc != wc || ls != ws {
					t.Fatalf("LookupCountSum[%d,%d) after the crack: %d/%d hit %v, want %d/%d", lo, hi, lc, ls, ok, wc, ws)
				}
			case 2:
				crackAt(ix, lo)
			case 3:
				crackAt(ix, hi)
			case 4:
				ix.RandomCrack(rng)
				ix.RandomCrack(rng)
			case 5: // both bounds pinned, then a random crack
				crackAt(ix, lo)
				crackAt(ix, hi)
				ix.RandomCrack(rng)
			}
			if err := ix.Validate(); err != nil {
				t.Fatalf("after op %d at [%d,%d): %v", op, lo, hi, err)
			}
		}

		// The whole column is still there, whatever the crack sequence did.
		if c, s := ix.CountSum(0, ix.Len()); c != wantCount || s != wantSum {
			t.Fatalf("column drifted: got %d/%d want %d/%d", c, s, wantCount, wantSum)
		}
		// Piece accounting stays coherent.
		total := 0
		ix.ForEachPiece(func(p Piece) bool {
			if p.Size() < 0 {
				t.Fatalf("negative piece %+v", p)
			}
			total += p.Size()
			return true
		})
		if total != ix.Len() {
			t.Fatalf("pieces cover %d of %d values", total, ix.Len())
		}
	})
}
