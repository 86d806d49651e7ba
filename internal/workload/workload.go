// Package workload implements the query and data generators behind the
// paper's experiments and the robustness extensions:
//
//   - Uniform: the paper's workload — random range queries of fixed
//     selectivity over uniformly distributed integers ("the value range
//     requested by each query is random", selectivity 1%);
//   - RoundRobin: Exp2's multi-column pattern ("queries on all 10 columns
//     arrive in a round robin fashion");
//   - Sequential: a domain sweep, the adversary of query-driven cracking
//     (the radix-first pass keeps its pieces bounded);
//   - Hotspot: a skewed workload concentrating on a fraction of the domain.
//
// All generators are deterministic given their seed.
package workload

import (
	"math/rand/v2"
)

// Query is one range select: SELECT Column FROM Table WHERE Column >= Lo AND
// Column < Hi.
type Query struct {
	Table  string
	Column string
	Lo, Hi int64
}

// Generator produces an endless query stream.
type Generator interface {
	Next() Query
}

// UniformData returns n integers drawn uniformly from [lo, hi), the paper's
// column contents (10^8 uniform integers in [1, 10^8]).
func UniformData(seed uint64, n int, lo, hi int64) []int64 {
	rng := rand.New(rand.NewPCG(seed, seed^0xD1B54A32D192ED03))
	vals := make([]int64, n)
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	for i := range vals {
		vals[i] = lo + rng.Int64N(span)
	}
	return vals
}

// span returns the query width for a selectivity over a domain.
func span(domLo, domHi int64, selectivity float64) int64 {
	w := int64(float64(domHi-domLo) * selectivity)
	if w < 1 {
		w = 1
	}
	return w
}

// Uniform generates fixed-selectivity range queries with uniformly random
// position — the paper's workload.
type Uniform struct {
	table, column string
	domLo, domHi  int64
	width         int64
	rng           *rand.Rand
}

// NewUniform builds the paper's query generator for one column.
func NewUniform(table, column string, domLo, domHi int64, selectivity float64, seed uint64) *Uniform {
	return &Uniform{
		table:  table,
		column: column,
		domLo:  domLo,
		domHi:  domHi,
		width:  span(domLo, domHi, selectivity),
		rng:    rand.New(rand.NewPCG(seed, seed^0x2545F4914F6CDD1D)),
	}
}

// Next implements Generator.
func (u *Uniform) Next() Query {
	maxLo := u.domHi - u.width
	if maxLo <= u.domLo {
		maxLo = u.domLo + 1
	}
	lo := u.domLo + u.rng.Int64N(maxLo-u.domLo)
	return Query{Table: u.table, Column: u.column, Lo: lo, Hi: lo + u.width}
}

// RoundRobin cycles deterministically through sub-generators — Exp2's
// multi-column arrival pattern.
type RoundRobin struct {
	gens []Generator
	next int
}

// NewRoundRobin combines generators; panics on an empty list.
func NewRoundRobin(gens ...Generator) *RoundRobin {
	if len(gens) == 0 {
		panic("workload: RoundRobin needs at least one generator")
	}
	return &RoundRobin{gens: gens}
}

// Next implements Generator.
func (r *RoundRobin) Next() Query {
	q := r.gens[r.next].Next()
	r.next = (r.next + 1) % len(r.gens)
	return q
}

// Sequential sweeps the domain left to right with fixed-width queries,
// wrapping around — the adversarial pattern for plain cracking.
type Sequential struct {
	table, column string
	domLo, domHi  int64
	width, step   int64
	pos           int64
}

// NewSequential builds a sweeping generator. A step <= 0 uses the width.
func NewSequential(table, column string, domLo, domHi int64, selectivity float64, step int64) *Sequential {
	w := span(domLo, domHi, selectivity)
	if step <= 0 {
		step = w
	}
	return &Sequential{table: table, column: column, domLo: domLo, domHi: domHi, width: w, step: step, pos: domLo}
}

// Next implements Generator.
func (s *Sequential) Next() Query {
	lo := s.pos
	s.pos += s.step
	if s.pos >= s.domHi {
		s.pos = s.domLo
	}
	hi := lo + s.width
	if hi > s.domHi {
		hi = s.domHi
	}
	return Query{Table: s.table, Column: s.column, Lo: lo, Hi: hi}
}

// Hotspot sends hotProb of queries into the first hotFrac of the domain and
// the rest uniformly — the 80/20-style skew that makes ranges "hot".
type Hotspot struct {
	table, column string
	domLo, domHi  int64
	width         int64
	hotFrac       float64
	hotProb       float64
	rng           *rand.Rand
}

// NewHotspot builds a skewed generator. hotFrac and hotProb are clamped to
// (0, 1].
func NewHotspot(table, column string, domLo, domHi int64, selectivity, hotFrac, hotProb float64, seed uint64) *Hotspot {
	clamp := func(f float64) float64 {
		if f <= 0 {
			return 0.2
		}
		if f > 1 {
			return 1
		}
		return f
	}
	return &Hotspot{
		table:   table,
		column:  column,
		domLo:   domLo,
		domHi:   domHi,
		width:   span(domLo, domHi, selectivity),
		hotFrac: clamp(hotFrac),
		hotProb: clamp(hotProb),
		rng:     rand.New(rand.NewPCG(seed, seed^0x9E3779B97F4A7C15)),
	}
}

// Next implements Generator.
func (h *Hotspot) Next() Query {
	domSpan := h.domHi - h.domLo
	var lo int64
	if h.rng.Float64() < h.hotProb {
		hotSpan := int64(float64(domSpan) * h.hotFrac)
		if hotSpan < 1 {
			hotSpan = 1
		}
		lo = h.domLo + h.rng.Int64N(hotSpan)
	} else {
		lo = h.domLo + h.rng.Int64N(domSpan)
	}
	hi := lo + h.width
	if hi > h.domHi {
		hi = h.domHi
		lo = hi - h.width
		if lo < h.domLo {
			lo = h.domLo
		}
	}
	return Query{Table: h.table, Column: h.column, Lo: lo, Hi: hi}
}
