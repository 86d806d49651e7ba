package shard

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"testing"
	"time"

	"holistic/internal/costmodel"
)

// TestFanOutRule drives Column.CountSum with made-up probes: each part either
// answers or declines with an estimate, and the select must hand the declined
// parts to fan-out workers exactly when the estimates a fan-out takes off the
// caller's path — all but the largest — reach costmodel.FanOutMinWork. Either
// way every declined part runs once, no answered part runs, and the merged
// answer adds up.
func TestFanOutRule(t *testing.T) {
	const min = costmodel.FanOutMinWork
	const answered = -1 // the part's probe answers; it has nothing left to run
	for _, tc := range []struct {
		name string
		est  []int
		fans bool
	}{
		{"one part, huge", []int{100 * min}, false},
		{"one part, nothing", []int{0}, false},
		{"all zero", []int{0, 0, 0, 0}, false},
		{"all answered", []int{answered, answered}, false},
		{"one huge part among empty ones", []int{0, 100 * min, 0, 0}, false},
		{"one huge part, the rest answered", []int{answered, 100 * min, answered}, false},
		{"two parts just under", []int{min - 1, min - 1}, false},
		{"two parts at the threshold", []int{min, min}, true},
		{"two parts, the smaller one pays", []int{min, 50 * min}, true},
		{"two parts, the smaller one does not", []int{min - 1, 50 * min}, false},
		{"four small parts add up", []int{min/3 + 1, min/3 + 1, min/3 + 1, min/3 + 3}, true},
		{"four small parts do not", []int{min / 4, min / 4, min / 4, min / 4}, false},
		{"eight parts, half answered", []int{answered, min / 2, answered, min / 2, answered, min / 2, answered, 1}, true},
		{"more parts than the stack buffer", []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, min}, false},
		{"more parts than the stack buffer, paying", []int{min / 8, min / 8, min / 8, min / 8, min / 8, min / 8, min / 8, min / 8, min / 8, min / 8, min}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewColumn("R.A", make([]int64, 4*len(tc.est)), Config{Shards: len(tc.est)})
			if err != nil {
				t.Fatal(err)
			}
			var workers atomic.Int64
			c.SetSelectHook(func(int) { workers.Add(1) })
			ran := make([]atomic.Int64, len(tc.est))
			wantCount, declined := 0, 0
			for i, e := range tc.est {
				wantCount += 10 + i
				if e != answered {
					declined++
				}
			}
			count, sum := c.CountSum(7, 9,
				func(p *Part, lo, hi int64) (int, int64, int, bool) {
					if lo != 7 || hi != 9 {
						t.Errorf("probe got [%d, %d)", lo, hi)
					}
					if e := tc.est[p.id]; e != answered {
						return 0, 0, e, false
					}
					return 10 + p.id, int64(p.id), 0, true
				},
				func(p *Part, lo, hi int64) (int, int64) {
					ran[p.id].Add(1)
					return 10 + p.id, int64(p.id)
				})
			n := len(tc.est)
			if count != wantCount || sum != int64(n*(n-1)/2) {
				t.Fatalf("merged %d/%d, want %d/%d", count, sum, wantCount, n*(n-1)/2)
			}
			for i, e := range tc.est {
				if got := ran[i].Load(); got > 1 || (got == 1) == (e == answered) {
					t.Fatalf("part %d (estimate %d) ran %d times, want once iff it declined", i, e, got)
				}
			}
			wantWorkers := 0
			if tc.fans {
				wantWorkers = declined
			}
			if got := workers.Load(); got != int64(wantWorkers) {
				t.Fatalf("%d fan-out workers for estimates %v, want %d", got, tc.est, wantWorkers)
			}
		})
	}
}

// BenchmarkFanOutCrossover is what costmodel.FanOutMinWork is read from: one
// select that cracks a fresh piece of `piece` values in three on every part,
// run on the caller's goroutine one part after the other (serial) and handed
// to one goroutine per part (fanout). select-us is the statement alone. Each
// select takes the next piece of a lap through the pre-cracked column, whose
// pieces add up to 8 MB a part, so each crack starts cold in cache as a select
// at a random position does; once a lap is used up the column is rebuilt off
// the clock. The crossover is the piece size from which fanout reads lower
// than serial; serial work taken off the caller at that size is
// (parts-1) x piece. Radix-first cracking is off: the rule's unit is one
// partition sweep.
func BenchmarkFanOutCrossover(b *testing.B) {
	const perPart = 1 << 20
	for _, parts := range []int{2, 4} {
		// Every part's stripe is a shuffle of 0..perPart-1.
		vals := make([]int64, parts*perPart)
		rng := rand.New(rand.NewPCG(23, uint64(parts)))
		for p := 0; p < parts; p++ {
			for i, v := range rng.Perm(perPart) {
				vals[i*parts+p] = int64(v)
			}
		}
		for _, piece := range []int{1 << 12, 1 << 14, 1 << 16, 1 << 18} {
			// precracked builds the column cracked at the multiples of piece.
			precracked := func() *Column {
				c, err := NewColumn("R.A", vals, Config{Shards: parts, radixMin: -1})
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range c.Parts() {
					for step := perPart / 2; step >= piece; step /= 2 { // bisect: log sweeps, not linear
						for at := step; at < perPart; at += 2 * step {
							p.CrackedSelect(int64(at), int64(at+step)) // at+step is cracked, or the end
						}
					}
				}
				return c
			}
			lap := perPart / piece
			for _, mode := range []string{"serial", "fanout"} {
				b.Run(fmt.Sprintf("parts=%d/piece=%d/%s", parts, piece, mode), func(b *testing.B) {
					var c *Column
					var busy time.Duration
					for i := 0; i < b.N; i++ {
						if i%lap == 0 {
							b.StopTimer()
							c = precracked()
							b.StartTimer()
						}
						at := int64(i % lap * piece)
						lo, hi := at+int64(piece/4), at+int64(3*piece/4)
						f := func(p *Part) (int, int64) { return p.CrackedSelect(lo, hi) }
						before, _ := c.PieceStats()
						count := 0
						start := time.Now()
						if mode == "fanout" {
							count, _ = c.FanOutCountSum(f)
						} else {
							for _, p := range c.Parts() {
								n, _ := f(p)
								count += n
							}
						}
						busy += time.Since(start)
						if count != parts*piece/2 {
							b.Fatalf("select [%d, %d) counted %d, want %d", lo, hi, count, parts*piece/2)
						}
						if after, _ := c.PieceStats(); after-before != 2*parts {
							b.Fatal("the select did not crack a fresh piece in three")
						}
					}
					b.ReportMetric(float64(busy.Microseconds())/float64(b.N), "select-us")
				})
			}
		}
	}
}
