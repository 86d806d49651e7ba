package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// The fixed load shape. These are part of the benchmark's definition, not
// flags: changing one changes what every recorded number means.
const (
	loadClients     = 2   // closed-loop connections on the loopback workloads
	loadShards      = 2   // engine.Config.Shards
	loadIdleWorkers = 2   // engine.Config.IdleWorkers (1 in traced runs)
	targetPiece     = 128 // engine.Config.TargetPieceSize, all workloads
	// nominalSeconds is the measured time the frozen sizes were tuned for
	// (BENCHMARK.json run_seconds). --seconds scales the repeat count
	// against it, never the size of one repeat, so a metric means the same
	// thing at any run length.
	nominalSeconds = 10
	// aaSeedB seeds the second set of `bench aa`: a seed no size was tuned on.
	aaSeedB = 7919
)

// Workload names.
const (
	wCold   = "cold_crack"
	wSteady = "steady_range"
	wPoint  = "wire_point"
	wBursty = "bursty_rw_durable"
)

type workloadSpec struct {
	Name string
	Why  string
	// Repeats is the number of fresh-engine repeats at nominalSeconds;
	// every end-to-end metric is the median over them.
	Repeats int
	// ExtraSetups is how many more times a run sets the workload up without
	// measuring it, so that setup_s is a median over enough samples where
	// one set-up is short and dominated by fsync of the logged load.
	ExtraSetups int
	// Discard is how many repeats run first and are thrown away: the first
	// repeat of a process takes its memory from the operating system page
	// by page, which a first-touch crack of 8M rows shows as 2x.
	Discard int
}

var workloadSpecs = []workloadSpec{
	{wCold, "in-process selects on a cold 8M-row column with manual idle windows: the paper's Fig. 3 curve; only cracker/scan/shard kernels work, the front end is bypassed", 9, 0, 1},
	{wSteady, "2 loopback clients, 1% ranges at random positions on a warmed 4M-row column: time is the cracked lookup's piece walk under two contending readers", 4, 0, 0},
	{wPoint, "2 loopback clients, 16-value ranges on a fully converged grid: index work is microseconds, so the statement is socket, JSON, gate, parse and per-part bookkeeping", 5, 0, 0},
	{wBursty, "2 loopback clients, 70/25/5 select/insert/delete bursts with gaps behind an fsync-always log: the only workload where wal, snapshot, updates, idle and loadgate work", 3, 6, 0},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloadSpecs {
		if workloadSpecs[i].Name == name {
			return &workloadSpecs[i]
		}
	}
	return nil
}

// metricSpec names one metric. On is the set of workloads it is measured
// on; nil means all four. Only metrics with On == nil can appear in
// BENCHMARK.json, whose contract wants every listed metric from every
// workload; the rest are printed by `run`/`trace` and gated by `aa`.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: share of the parent median it may worsen by
	On     []string
}

func (m *metricSpec) on(w string) bool { return m.On == nil || slices.Contains(m.On, w) }

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25, nil},
	{"select_p50_us", "us", "lower", 0.25, nil},
	{"stmt_per_s", "1/s", "higher", 0.25, nil},
	{"heap_mb", "MB", "lower", 0.02, nil},
	{"cum_query_s", "s", "lower", 0.15, []string{wCold}},
	{"idle_total_s", "s", "lower", 0.15, []string{wCold}},
	{"write_p50_us", "us", "lower", 0.25, []string{wBursty}},
	{"recover_s", "s", "lower", 0.25, []string{wBursty}},
}

var (
	wire3   = []string{wSteady, wPoint, wBursty}
	idled   = []string{wCold, wBursty}
	durable = []string{wBursty}
)

var perLayer = []metricSpec{
	{Name: "server.self_us", Unit: "us", Better: "lower", On: wire3},
	{Name: "server.overloaded", Unit: "count", Better: "lower", On: wire3},
	{Name: "loadgate.step_grants", Unit: "count", Better: "higher", On: wire3},
	{Name: "loadgate.gaps", Unit: "count", Better: "lower", On: wire3},
	{Name: "sqlmini.parse_us", Unit: "us", Better: "lower", On: wire3},
	{Name: "sqlmini.self_us", Unit: "us", Better: "lower", On: wire3},
	{Name: "engine.select_us", Unit: "us", Better: "lower"},
	{Name: "engine.self_us", Unit: "us", Better: "lower"},
	{Name: "engine.insert_us", Unit: "us", Better: "lower", On: durable},
	{Name: "engine.delete_us", Unit: "us", Better: "lower", On: durable},
	{Name: "engine.insert_nolog_us", Unit: "us", Better: "lower", On: durable},
	{Name: "engine.delete_nolog_us", Unit: "us", Better: "lower", On: durable},
	{Name: "core.note_boost_us", Unit: "us", Better: "lower"},
	{Name: "core.boosts", Unit: "count", Better: "lower"},
	{Name: "core.contended", Unit: "count", Better: "lower"},
	{Name: "core.idle_actions", Unit: "count", Better: "higher", On: idled},
	{Name: "core.idle_action_us", Unit: "us", Better: "lower", On: idled},
	{Name: "core.idle_work_per_action", Unit: "count", Better: "lower", On: idled},
	{Name: "shard.fanout_us", Unit: "us", Better: "lower"},
	{Name: "shard.part_us", Unit: "us", Better: "lower"},
	{Name: "shard.fanout_overhead_us", Unit: "us", Better: "lower"},
	{Name: "shard.merge_step_us", Unit: "us", Better: "lower", On: durable},
	{Name: "shard.pending_at_burst_end", Unit: "count", Better: "lower", On: durable},
	{Name: "cracker.first_touch_ms", Unit: "ms", Better: "lower"},
	{Name: "cracker.crack_us", Unit: "us", Better: "lower"},
	{Name: "cracker.lookup_us", Unit: "us", Better: "lower"},
	{Name: "cracker.pieces_per_select", Unit: "count", Better: "lower"},
	{Name: "cracker.pieces_start", Unit: "count", Better: "lower"},
	{Name: "cracker.pieces_end", Unit: "count", Better: "lower"},
	{Name: "cracker.avg_piece_end", Unit: "count", Better: "higher"},
	{Name: "scan.ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "sortindex.build_ms", Unit: "ms", Better: "lower"},
	{Name: "sortindex.lookup_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower", On: durable},
	{Name: "wal.bytes_per_row", Unit: "B", Better: "lower", On: durable},
	{Name: "snapshot.checkpoint_ms", Unit: "ms", Better: "lower", On: durable},
	{Name: "snapshot.bytes_per_row", Unit: "B", Better: "lower", On: durable},
	{Name: "snapshot.open_ms", Unit: "ms", Better: "lower", On: durable},
	{Name: "snapshot.replayed", Unit: "count", Better: "lower", On: durable},
	{Name: "idle.gap_actions", Unit: "count", Better: "higher", On: durable},
	{Name: "idle.busy_actions", Unit: "count", Better: "lower", On: durable},
	{Name: "idle.post_gap_select_us", Unit: "us", Better: "lower", On: durable},
	{Name: "client.first_query_ms", Unit: "ms", Better: "lower", On: []string{wCold}},
	{Name: "client.select_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.select_p999_us", Unit: "us", Better: "lower"},
	{Name: "client.write_p99_us", Unit: "us", Better: "lower", On: durable},
	{Name: "client.p50_drift_ratio", Unit: "ratio", Better: "lower"},
	{Name: "client.busy_share", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

func findMetric(list []metricSpec, name string) *metricSpec {
	for i := range list {
		if list[i].Name == name {
			return &list[i]
		}
	}
	return nil
}

// sizes holds every count that shapes a workload. full is frozen; smoke is
// the shrunken set the test and `-smoke` use.
type sizes struct {
	coldRows, coldQueries, coldWindow, coldActions int

	steadyRows, steadyWarm, steadyMeasured int // statements across all clients

	pointRows, pointGrid, pointWidth, pointMeasured int // pointMeasured per client

	burstRows, bursts, burstStmts, checkpointAfter int // burstStmts per client per burst
	gapMillis, gapActions                          int // run sleeps gapMillis; trace runs gapActions manual idle actions
	insertRows, deleteVals                         int

	// Traced runs replay a prefix of the same streams: six fresh builds
	// of one workload have to fit the time one run is allowed.
	traceSteadyWarm, traceSteadyMeasured int
	tracePointMeasured                   int
	traceBursts                          int
	probeQueries                         int // kernel-rung lookup probes
}

var fullSizes = sizes{
	coldRows: 8 << 20, coldQueries: 2000, coldWindow: 100, coldActions: 100,
	steadyRows: 4 << 20, steadyWarm: 5000, steadyMeasured: 12000,
	pointRows: 4 << 20, pointGrid: 1 << 13, pointWidth: 16, pointMeasured: 50000,
	burstRows: 2 << 20, bursts: 10, burstStmts: 400, checkpointAfter: 5,
	gapMillis: 100, gapActions: 64, insertRows: 8, deleteVals: 4,
	traceSteadyWarm: 5000, traceSteadyMeasured: 6000,
	tracePointMeasured: 16000,
	traceBursts:        8,
	probeQueries:       2000,
}

var smokeSizes = sizes{
	coldRows: 200000, coldQueries: 300, coldWindow: 100, coldActions: 20,
	steadyRows: 100000, steadyWarm: 400, steadyMeasured: 1200,
	pointRows: 100000, pointGrid: 1 << 7, pointWidth: 16, pointMeasured: 1500,
	burstRows: 50000, bursts: 4, burstStmts: 60, checkpointAfter: 2,
	gapMillis: 20, gapActions: 16, insertRows: 8, deleteVals: 4,
	traceSteadyWarm: 400, traceSteadyMeasured: 600,
	tracePointMeasured: 800,
	traceBursts:        4,
	probeQueries:       100,
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// benchDir is the directory holding this program's sources (and results/).
// run.sh exports it; `go run .` from bench/ falls back to the working
// directory.
func benchDir() string {
	if d := os.Getenv("HOLISTIC_BENCH_DIR"); d != "" {
		return d
	}
	if _, err := os.Stat("bench/go.mod"); err == nil {
		return "bench"
	}
	return "."
}

func loadBenchmarkFile() (*benchmarkFile, error) {
	path := filepath.Join(benchDir(), "..", "BENCHMARK.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}
