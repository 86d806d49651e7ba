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
// The same package provides the rough operator cost estimates behind the
// online strategy's (COLT-style) what-if index selection, BuildPays: all
// estimates are in abstract "element touch" units so they are machine
// independent and only ever compared with one another.
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
// pass costs ~2 sweeps (histogram + scatter) and buys one halving per bit of
// its fan-out, which the cracker sizes to the piece so uniform buckets hold
// ~2^10 values (2^7 buckets at this threshold, up to 2^12 for a multi-million
// value part); a comparison crack costs 1 sweep and buys one halving. Radix
// therefore wins whenever the piece still needs 2+ halvings — but it also
// fans out into many pieces at once, so gating it at half the
// cache-resident target keeps it from shattering pieces that one or two
// comparison cracks would finish, while every genuinely cold piece (the
// multi-megabyte first touch of a column) takes the coarse pass.
const DefaultRadixMinPiece = 1 << 17

// FanOutMinWork is how many values a fan-out must take off the caller's
// goroutine before a select starts one (shard.Column.CountSum); below it the
// parts run one after the other. A hand-off costs 7 us with the other core
// spinning and up to 25 us with it parked (docs/pr23_select_handoff.md).
// With the vector kernels a cold crack in three costs ~0.45 ns a value on a
// narrow copy and ~0.95 on a wide one, and BenchmarkFanOutCrossover in
// internal/shard (serial vs fanned out, pieces of 2^12..2^18 values, 2 and
// 4 parts; re-measure with it) reads the same crossover at both widths on
// the 2-vCPU Xeon: 2 parts pay from pieces between 2^16 and 2^18 values
// (65k-262k values taken off the caller), 4 parts from pieces between 2^12
// and 2^14 (12k-49k); never when the second core is busy.
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

// Operator cost estimates, in element-touch units. They support the online
// review's what-if arithmetic (BuildPays); only ratios matter.

// buildHorizon is how many epochs of the load that asked for a full index
// the index must pay for its build within.
const buildHorizon = 10

// BuildPays is the online review's what-if test: a full index on a column of
// n live values pays when queries selects per epoch, at average selectivity
// avgSel (clamped to [0, 1]), would have saved more over buildHorizon epochs
// than the sort costs. On a tiny column two binary searches cost more than
// the scan they replace, so no load pays.
func BuildPays(n, queries int, avgSel float64) bool {
	avgSel = min(max(avgSel, 0), 1)
	gain := ScanCost(n) - IndexedSelectCost(n, avgSel)
	return gain > 0 && gain*float64(queries*buildHorizon) >= SortCost(n)
}

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
