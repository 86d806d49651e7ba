// Package holistic is a main-memory column-store kernel in which offline,
// online and adaptive indexing coexist and cooperate — a Go implementation
// of "Holistic Indexing: Offline, Online and Adaptive Indexing in the Same
// Kernel" (Petraki, SIGMOD/PODS 2012 PhD Symposium).
//
// The kernel stores integer columns and answers range selects of the form
//
//	SELECT col FROM table WHERE col >= lo AND col < hi
//
// under one of five indexing strategies:
//
//   - StrategyScan: no physical design, every query scans;
//   - StrategyOffline: full indexes — cracker indexes sorted to completion —
//     built a priori (BuildFullIndex; cmd/holisticd at boot);
//   - StrategyOnline: a COLT-style epoch review of the workload builds and
//     drops full indexes, and the select that closes the epoch pays a build;
//   - StrategyAdaptive: database cracking — each query partially reorganises
//     the column around its predicate bounds;
//   - StrategyHolistic: the paper's contribution — cracking selects plus
//     continuous monitoring, and every scrap of idle time spent on ranked
//     random index refinements (IdleActions or the AutoIdle worker), plus
//     a-priori workload seeding (SeedWorkloadHint). A select cracks only
//     its own bounds; all further refinement waits for idle time, and
//     stops once a column's pieces fit the CPU cache.
//
// Quick start:
//
//	eng := holistic.New(holistic.Config{Strategy: holistic.StrategyHolistic})
//	defer eng.Close()
//	tab, _ := eng.CreateTable("R")
//	_ = tab.AddColumnFromSlice("A", holistic.GenerateUniform(1, 1_000_000, 1, 1_000_000))
//	res, _ := eng.Select("R", "A", 1000, 11000)   // cracks as a side effect
//	eng.IdleActions(100)                          // exploit an idle moment
//	fmt.Println(res.Count, res.Sum)
//
// The kernel also runs as a network server: cmd/holisticd serves sqlmini
// statements over TCP (wire protocol in docs/protocol.md) with the idle
// worker pool gated on live traffic, so every gap between client requests
// is spent on index refinement — the deployment the paper assumes. See
// README.md and ARCHITECTURE.md at the repository root.
package holistic

import (
	"holistic/internal/engine"
	"holistic/internal/workload"
)

// Engine is the database kernel. Construct with New; all methods are safe
// for concurrent use.
type Engine = engine.Engine

// Config configures an Engine.
type Config = engine.Config

// Result is the outcome of one Select.
type Result = engine.Result

// Table is a collection of equal-length integer columns.
type Table = engine.Table

// Strategy selects the indexing approach.
type Strategy = engine.Strategy

// Capabilities is the feature matrix row of a strategy (the paper's
// Table 1).
type Capabilities = engine.Capabilities

// The five indexing strategies.
const (
	StrategyScan     = engine.StrategyScan
	StrategyOffline  = engine.StrategyOffline
	StrategyOnline   = engine.StrategyOnline
	StrategyAdaptive = engine.StrategyAdaptive
	StrategyHolistic = engine.StrategyHolistic
)

// Catalog errors.
var (
	ErrNoTable        = engine.ErrNoTable
	ErrNoColumn       = engine.ErrNoColumn
	ErrTableExists    = engine.ErrTableExists
	ErrColumnExists   = engine.ErrColumnExists
	ErrLengthMismatch = engine.ErrLengthMismatch
)

// ColumnDesign describes the live physical design of one column, as
// returned by Engine.DescribePhysicalDesign.
type ColumnDesign = engine.ColumnDesign

// New builds an engine with the given configuration.
func New(cfg Config) *Engine { return engine.New(cfg) }

// FormatPhysicalDesign renders Engine.DescribePhysicalDesign as a table.
func FormatPhysicalDesign(ds []ColumnDesign) string {
	return engine.FormatPhysicalDesign(ds)
}

// Strategies lists every strategy in presentation order.
func Strategies() []Strategy { return engine.Strategies() }

// GenerateUniform returns n integers drawn uniformly from [lo, hi),
// deterministic per seed — the data distribution of the paper's experiments.
func GenerateUniform(seed uint64, n int, lo, hi int64) []int64 {
	return workload.UniformData(seed, n, lo, hi)
}

// Query is one range select produced by a workload generator.
type Query = workload.Query

// WorkloadGenerator produces an endless query stream.
type WorkloadGenerator = workload.Generator

// NewUniformWorkload builds the paper's workload: fixed-selectivity range
// queries at uniformly random positions over [domLo, domHi).
func NewUniformWorkload(table, column string, domLo, domHi int64, selectivity float64, seed uint64) WorkloadGenerator {
	return workload.NewUniform(table, column, domLo, domHi, selectivity, seed)
}

// NewRoundRobinWorkload cycles through generators — the multi-column
// arrival pattern of the paper's Exp2.
func NewRoundRobinWorkload(gens ...WorkloadGenerator) WorkloadGenerator {
	return workload.NewRoundRobin(gens...)
}

// NewHotspotWorkload concentrates hotProb of the queries on the first
// hotFrac of the domain — a skewed workload.
func NewHotspotWorkload(table, column string, domLo, domHi int64, selectivity, hotFrac, hotProb float64, seed uint64) WorkloadGenerator {
	return workload.NewHotspot(table, column, domLo, domHi, selectivity, hotFrac, hotProb, seed)
}

// NewSequentialWorkload sweeps the domain with fixed-width queries — the
// adversary of query-driven cracking, which the radix-first pass on the first
// touch of a cold piece of at least costmodel.DefaultRadixMinPiece values
// keeps bounded.
func NewSequentialWorkload(table, column string, domLo, domHi int64, selectivity float64, step int64) WorkloadGenerator {
	return workload.NewSequential(table, column, domLo, domHi, selectivity, step)
}
