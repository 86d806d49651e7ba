// Package costmodel implements the cost estimates and the ranking scheme of
// holistic indexing's continuous tuning loop (paper §3 "Modeling"):
//
//	"if we detect a couple of idle milliseconds on which column should we
//	 apply a random crack action?"
//
// The model rests on the paper's key observation: once a cracked column's
// pieces fit in the CPU caches, further refinement stops paying off. The
// distance of a column from that optimum is therefore log2(avgPieceSize /
// targetPieceSize) — the number of halvings still needed — and the expected
// payoff of giving the next idle crack to a column is that distance weighted
// by how often the workload actually touches the column.
//
// The same package provides the rough operator cost estimates the online
// (COLT-style) advisor needs for its what-if index selection: all estimates
// are in abstract "element touch" units so they are machine independent and
// only ever compared with one another.
package costmodel

import (
	"math"
)

// DefaultTargetPieceSize is the piece size (in values) considered cache
// resident. 256K int64 values = 2 MiB, a typical L2 size; the paper's
// stopping criterion is "pieces fit into the CPU caches".
const DefaultTargetPieceSize = 1 << 18

// DefaultRadixMinPiece is the piece size above which the first touch of a
// cold piece runs a radix coarse pass instead of a comparison crack. A radix
// pass costs ~2 sweeps (histogram + scatter) and buys up to 8 halvings (2^8
// buckets); a comparison crack costs 1 sweep and buys one halving. Radix
// therefore wins whenever the piece still needs 2+ halvings — but it also
// fans out into up to 256 pieces at once, so gating it at half the
// cache-resident target keeps it from shattering pieces that one or two
// comparison cracks would finish, while every genuinely cold piece (the
// multi-megabyte first touch of a column) takes the coarse pass.
const DefaultRadixMinPiece = 1 << 17

// PredicatedCrackFactor scales the comparison-crack cost terms for the
// predicated (branch-free) partition loops: with no data-dependent branches
// the partition sweep runs at close to memory speed instead of paying a
// misprediction every other element. The factor is the single-core ratio of
// predicated to branchy sweep time on random data; re-measure it with the
// BenchmarkPartition2/{reference,predicated} pair in internal/cracker. Cost
// estimates only ever compare against one another, so the exact value
// matters less than applying it consistently to every partition-sweep term.
//
// The one-cursor kernel (PR 22) measures ~0.32 on the 2-core dev host at a
// median pivot (~0.21 ms vs ~0.67 ms for 2^17 values); the two-cursor kernel
// before it measured ~0.88. The value stays 0.6 deliberately: changing it
// re-weights CrackActionCost against merges and snapshots in the idle
// auction, which is the tuner calibration's job (ROADMAP item 3),
// not a kernel change's.
const PredicatedCrackFactor = 0.6

// FanOutMinWork is how many values a fan-out must take off the caller's
// goroutine before a select starts one (shard.Column.CountSum); below it the
// parts run one after the other. A hand-off costs 7 us with the other core
// spinning and up to 25 us with it parked, 4.5k-16k values at the partition
// kernel's ~1.6 ns a value, and pays from ~32k values when a second core is
// really free — never when it is not (docs/pr23_select_handoff.md), so the
// constant sits a factor of two above that. Re-measure with
// BenchmarkFanOutCrossover in internal/shard (serial vs fanned out, pieces of
// 2^12..2^18 values, 2 and 4 parts).
const FanOutMinWork = 1 << 16

// Params configures the model.
type Params struct {
	// TargetPieceSize is the piece size at which refinement stops paying
	// off. <= 0 selects DefaultTargetPieceSize.
	TargetPieceSize int
}

// Target is the resolved target piece size: the convergence point below
// which idle refinement splits no piece further.
func (p Params) Target() float64 {
	if p.TargetPieceSize <= 0 {
		return DefaultTargetPieceSize
	}
	return float64(p.TargetPieceSize)
}

// Distance returns how far a column is from its cache-resident optimum, in
// expected remaining halvings: log2(avgPieceSize/target), floored at 0.
func (p Params) Distance(avgPieceSize float64) float64 {
	t := p.Target()
	if avgPieceSize <= t || avgPieceSize <= 0 {
		return 0
	}
	return math.Log2(avgPieceSize / t)
}

// Score ranks a column for the next idle refinement: workload frequency
// times distance from optimal. A zero score means "leave this column alone"
// — either nobody queries it or its pieces are already cache resident.
func (p Params) Score(frequency, avgPieceSize float64) float64 {
	if frequency <= 0 {
		return 0
	}
	return frequency * p.Distance(avgPieceSize)
}

// MergeScore ranks draining a column's pending-update backlog against crack
// refinement for the same idle slot. The backlog is measured in buffered
// operations; normalising by the target piece size puts it in the same
// "remaining halvings"-flavoured units as Score: a backlog the size of one
// cache-resident piece outranks one halving of an averagely queried column.
// Unlike cracking, merging pays even on a never-queried column — an unmerged
// backlog costs every future read an O(backlog) combine — so frequency
// enters as (1 + frequency): a queried column's backlog ranks higher, but a
// quiet column's backlog still drains.
func (p Params) MergeScore(frequency float64, pendingOps int) float64 {
	if pendingOps <= 0 {
		return 0
	}
	if frequency < 0 {
		frequency = 0
	}
	return (1 + frequency) * float64(pendingOps) / p.Target()
}

// DefaultSnapshotThreshold is the statement-log growth (bytes since the
// last checkpoint) at which the snapshot action starts bidding for idle
// slots. Below it a checkpoint would cost more than the replay it saves.
const DefaultSnapshotThreshold = 1 << 20

// SnapshotScore ranks taking a checkpoint against crack and merge actions
// for the same idle slot. walBytes is the statement-log growth since the
// last checkpoint. The score is zero below DefaultSnapshotThreshold — a
// near-empty log is cheap to replay, so the slot is better spent refining —
// and grows linearly past it, so a long-uncheckpointed engine eventually
// outbids any crack: recovery time is bounded no matter how hot the workload
// keeps the columns.
func SnapshotScore(walBytes int64) float64 {
	if walBytes < DefaultSnapshotThreshold {
		return 0
	}
	return float64(walBytes) / DefaultSnapshotThreshold
}

// SpecFineFraction is how much finer than the cache-resident target a
// speculatively pre-cracked range is refined. Real refinement stops when the
// whole column's average piece fits the cache; a *predicted* range is worth
// concentrating extra idle budget on precisely because the next burst will
// hammer it, so speculation drives just that range SpecFineFraction× finer.
// This is also what keeps speculation subordinate to real work: by the time
// the tuner speculates, the column-wide backlog is already drained, and the
// extra refinement only ever spends budgeted idle slots.
const SpecFineFraction = 16

// specTargetFloor is the smallest speculative piece target; refining below
// a few cache lines of values costs more in tree bookkeeping than any scan
// saves.
const specTargetFloor = 64

// SpecTarget is the piece size speculation refines a predicted range toward:
// the cache-resident target divided by SpecFineFraction, floored.
func (p Params) SpecTarget() float64 {
	t := p.Target() / SpecFineFraction
	if t < specTargetFloor {
		t = specTargetFloor
	}
	return t
}

// SpecDistance is Distance against the finer speculative target: how many
// halvings a predicted range still needs before the next burst finds it
// effectively pre-indexed.
func (p Params) SpecDistance(avgPieceSize float64) float64 {
	t := p.SpecTarget()
	if avgPieceSize <= t || avgPieceSize <= 0 {
		return 0
	}
	return math.Log2(avgPieceSize / t)
}

// PredictScore ranks a forecast-predicted range for a speculative pre-crack
// slot: the forecaster's confidence in the range scales the expected payoff,
// so a near-certain drift gets the full bid while a shaky forecast bids
// almost nothing (and below the forecaster's own confidence floor it never
// reaches the tuner at all). Frequency enters as (0.5 + frequency) rather
// than as a pure factor: a high-confidence prediction on a column with a
// small workload share is still worth idle slots — the forecast itself is
// the evidence the range is about to be queried — but busier columns still
// outbid quieter ones. The distance term uses the speculative (finer)
// target, so a zero score means the predicted range is already pre-cracked
// and speculation is done.
func (p Params) PredictScore(confidence, frequency, avgPieceSize float64) float64 {
	if confidence <= 0 {
		return 0
	}
	if frequency < 0 {
		frequency = 0
	}
	return confidence * (0.5 + frequency) * p.SpecDistance(avgPieceSize)
}

// Operator cost estimates, in element-touch units. They support the online
// advisor's what-if arithmetic; only ratios matter.

// ScanCost is the cost of a full scan of n values.
func ScanCost(n int) float64 { return float64(n) }

// SortCost is the cost of building a full sorted index over n values:
// cracker.Index.Sort is a comparison sort, n·log2(n) element touches.
func SortCost(n int) float64 {
	if n < 2 {
		return float64(n)
	}
	return float64(n) * math.Log2(float64(n))
}

// IndexedSelectCost is the cost of answering a range select with a full
// index: two binary searches plus touching the qualifying tuples.
func IndexedSelectCost(n int, selectivity float64) float64 {
	if n == 0 {
		return 0
	}
	return 2*math.Log2(float64(n)+1) + selectivity*float64(n)
}

// CrackActionCost is the expected cost of one random refinement action:
// one predicated partition sweep of an average piece.
func CrackActionCost(avgPieceSize float64) float64 {
	return PredicatedCrackFactor * avgPieceSize
}
