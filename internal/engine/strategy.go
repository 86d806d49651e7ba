package engine

import "fmt"

// Strategy selects the indexing philosophy the kernel applies to selects.
// The five strategies reproduce the paper's comparison set: plain scans,
// offline (full a-priori) indexing, online (COLT-style) indexing, adaptive
// indexing (database cracking), and holistic indexing.
//
// They run in the same kernel and differ only in their row of the paper's
// Table 1 (Capabilities), which New reads once: IncrementalIndexing makes a
// select crack the parts its probe could not answer instead of scanning
// them, and IdleTimeDuring builds the holistic tuner and its idle pool with
// incremental indexing, the online review without. Two columns do not map
// one to one onto engine mechanisms. Offline's IdleTimeAPriori is a full
// index built before the workload through BuildFullIndex, by holisticd's
// a-priori build and by the experiment harness, not by the engine itself;
// holistic's a-priori input is SeedWorkloadHint. StatisticalAnalysis is the
// online review's and the tuner's monitoring, and offline's analysis happens
// before the engine starts.
type Strategy int

const (
	// StrategyScan serves every select with a full scan; no physical design.
	StrategyScan Strategy = iota
	// StrategyOffline serves selects with a full index (each part's cracker
	// index sorted to completion) built ahead of the workload by
	// BuildFullIndex, which holisticd runs at boot; scans until it exists.
	StrategyOffline
	// StrategyOnline reviews the workload every epoch of selects, building
	// and dropping full indexes; the select that closes the epoch pays the
	// build.
	StrategyOnline
	// StrategyAdaptive is database cracking: selects crack as they go, no
	// monitoring, no idle-time exploitation.
	StrategyAdaptive
	// StrategyHolistic combines them: cracking selects, continuous
	// monitoring, idle-time refinement and a-priori knowledge seeding.
	StrategyHolistic
)

// String returns the strategy's display name as used in the paper's plots.
func (s Strategy) String() string {
	switch s {
	case StrategyScan:
		return "scan"
	case StrategyOffline:
		return "offline"
	case StrategyOnline:
		return "online"
	case StrategyAdaptive:
		return "adaptive"
	case StrategyHolistic:
		return "holistic"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Capabilities is the feature matrix of Table 1 in the paper: which tuning
// opportunities each indexing approach can exploit.
type Capabilities struct {
	// StatisticalAnalysis: the approach analyses workload statistics
	// (offline: a-priori; online/holistic: continuously).
	StatisticalAnalysis bool
	// IdleTimeAPriori: exploits idle time before the workload starts.
	IdleTimeAPriori bool
	// IdleTimeDuring: exploits idle time between queries during workload
	// execution.
	IdleTimeDuring bool
	// IncrementalIndexing: indexes are partial and refined incrementally.
	IncrementalIndexing bool
	// Workload is the environment the approach targets: "static",
	// "dynamic", or "none" for the scan baseline.
	Workload string
}

// Capabilities returns the strategy's row of the paper's Table 1.
func (s Strategy) Capabilities() Capabilities {
	switch s {
	case StrategyOffline:
		return Capabilities{StatisticalAnalysis: true, IdleTimeAPriori: true, Workload: "static"}
	case StrategyOnline:
		return Capabilities{StatisticalAnalysis: true, IdleTimeDuring: true, Workload: "dynamic"}
	case StrategyAdaptive:
		return Capabilities{IncrementalIndexing: true, Workload: "dynamic"}
	case StrategyHolistic:
		return Capabilities{
			StatisticalAnalysis: true,
			IdleTimeAPriori:     true,
			IdleTimeDuring:      true,
			IncrementalIndexing: true,
			Workload:            "dynamic",
		}
	default:
		return Capabilities{Workload: "none"}
	}
}

// Strategies lists every strategy in presentation order.
func Strategies() []Strategy {
	return []Strategy{StrategyScan, StrategyOffline, StrategyOnline, StrategyAdaptive, StrategyHolistic}
}
