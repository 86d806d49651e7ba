package cracker

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"holistic/internal/updates"
)

// TestMergeGrowthSlack: a merge that outgrows the copy, its row ids or a
// sorted index's prefix sums moves each to an array of at most n + k + n/64
// (n what it held, k the batch), cracked or sorted, values-only or with row
// ids; merges that fit in that 1/64 then move nothing.
func TestMergeGrowthSlack(t *testing.T) {
	const n, k = 200_000, 4096
	for _, state := range []string{"cracked", "sorted"} {
		for _, withRows := range []bool{false, true} {
			name := fmt.Sprintf("%s/rows=%v", state, withRows)
			rng := rand.New(rand.NewPCG(52, 1))
			vals := randomVals(rng, n, 1<<30)
			var rows []uint32
			if withRows {
				rows = make([]uint32, n)
				for i := range rows {
					rows[i] = uint32(i)
				}
			}
			ix := New(vals, rows)
			ix.CrackRange(1<<28, 1<<29)
			if state == "sorted" {
				ix.Sort()
			}
			capOK := func(what string, c, held, batch int) {
				t.Helper()
				if c < held+batch || c > held+batch+held/64 {
					t.Fatalf("%s: %s has capacity %d after merging %d into %d, want at most %d", name, what, c, batch, held, held+batch+held/64)
				}
			}
			next := uint32(n)
			batch := func(size int) []updates.Entry {
				ins := make([]updates.Entry, size)
				for j := range ins {
					ins[j] = updates.Entry{Val: rng.Int64N(1 << 30), Row: next}
					next++
				}
				updates.SortByVal(ins)
				return ins
			}
			preLen := len(ix.pre)
			ix.Merge(batch(k), nil)
			capOK("the copy", cap(ix.vals), n, k)
			if withRows {
				capOK("the row ids", cap(ix.rows), n, k)
			}
			if state == "sorted" {
				capOK("the prefix sums", cap(ix.pre), preLen, k)
			}
			v0, c0 := &ix.vals[0], cap(ix.vals)
			for left := c0 - len(ix.vals); left > 0; left -= min(left, 500) {
				ix.Merge(batch(min(left, 500)), nil)
			}
			if &ix.vals[0] != v0 || len(ix.vals) != c0 {
				t.Fatalf("%s: merges that fit the slack moved the copy", name)
			}
			if err := ix.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// TestMergeGrowthFloor: 100 000 single-row merges into a 100-value index
// move the copy and its row ids O(log n) times each. Below growFloor they
// grow as append does (~20 moves up to 2^16); above it each move makes room
// for 1/64 more (~28 moves from 2^16 to 100 100). Without the floor the
// 1/64 rule would move a small array at nearly every merge, ~450 times.
func TestMergeGrowthFloor(t *testing.T) {
	const n0, merges, bound = 100, 100_000, 64
	rng := rand.New(rand.NewPCG(52, 2))
	rows := make([]uint32, n0)
	for i := range rows {
		rows[i] = uint32(i)
	}
	ix := New(randomVals(rng, n0, 1000), rows)
	ix.CrackRange(300, 600)
	var vm, rm int // moves of the copy and of its row ids
	vc, rc := cap(ix.vals), cap(ix.rows)
	for i := range merges {
		ix.Merge(one(rng.Int64N(1000), uint32(n0+i)), nil)
		if c := cap(ix.vals); c != vc {
			vm, vc = vm+1, c
		}
		if c := cap(ix.rows); c != rc {
			rm, rc = rm+1, c
		}
	}
	if vm > bound || rm > bound {
		t.Fatalf("%d single-row merges moved the copy %d times and its row ids %d times, want at most %d", merges, vm, rm, bound)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	t.Logf("copy moved %d times, row ids %d times", vm, rm)
}
