// Command bench is the repository's benchmark: four seeded workloads
// against the holistic kernel wired as cmd/holisticd wires it, every answer
// checked against an oracle, end-to-end metrics from untraced runs and
// per-layer metrics from a traced ladder run. See README.md.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run, JSON on the last line
//	bench run|trace <workload>|report|aa [-seed N] [-smoke]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	if err := realMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	smoke    bool
}

func (o *options) sizes() *sizes {
	if o.smoke {
		return &smokeSizes
	}
	return &fullSizes
}

func realMain(args []string) error {
	sub := ""
	if len(args) > 0 && args[0] != "" && args[0][0] != '-' {
		sub, args = args[0], args[1:]
	}
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name (one-run mode)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the only workload argument")
	fs.IntVar(&o.seconds, "seconds", nominalSeconds, "measured seconds; scales the number of fresh-engine repeats")
	fs.IntVar(&o.trace, "trace", 0, "1: traced ladder run, per-layer metrics; 0: untraced, end-to-end metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "shrunken sizes (seconds, not minutes; numbers mean nothing)")
	if sub == "trace" && len(args) > 0 && args[0][0] != '-' {
		o.workload, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A collection in the middle of a measured phase is noise the kernel
	// did not cause: heaps here are dominated by long-lived columns, so
	// collect rarely and explicitly (before every measured phase).
	debug.SetGCPercent(400)

	switch sub {
	case "":
		return oneRun(&o)
	case "run":
		_, err := runSuite(&o, o.seed, filepath.Join(benchDir(), "results", "run.json"))
		return err
	case "trace":
		return traceCmd(&o)
	case "report":
		return reportCmd()
	case "aa":
		return aaCmd(&o)
	default:
		return fmt.Errorf("unknown subcommand %q (want run, trace, report or aa)", sub)
	}
}

// scratchDir is where temp data dirs live: inside the checkout, never /tmp,
// so a run reads and writes nothing outside it.
func scratchDir() (string, error) {
	dir := filepath.Join(benchDir(), "..", ".bench_build", "tmp")
	return dir, os.MkdirAll(dir, 0o755)
}

// workloadResult is one workload's untraced outcome over its repeats.
type workloadResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Repeats   int                `json:"repeats"`
	WallS     float64            `json:"wall_s"`
	MeasuredS float64            `json:"measured_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]summary `json:"per_layer"`
	Errors    []string           `json:"errors,omitempty"`
}

// runWorkload builds the plan for (workload, seed) and replays it on
// `repeats` fresh kernels at the workload's own entry: two loopback
// clients against the server, or in-process calls for cold_crack.
func runWorkload(name string, sz *sizes, seed uint64, repeats int) (*workloadResult, error) {
	spec := findWorkload(name)
	start := time.Now()
	scratch, err := scratchDir()
	if err != nil {
		return nil, err
	}
	p, err := newPlan(name, sz, seed)
	if err != nil {
		return nil, err
	}
	o := passOpts{rung: rungWire, idleWorkers: loadIdleWorkers, autoIdle: true, scratch: scratch}
	if name == wCold {
		o.rung, o.autoIdle = rungEngine, false
	}
	out := &workloadResult{Workload: name, Seed: seed, Repeats: repeats,
		EndToEnd: map[string]summary{}, PerLayer: map[string]summary{}}
	e2e, layers := map[string][]float64{}, map[string][]float64{}
	for r := -spec.Discard; r < repeats; r++ {
		res, err := runPass(p, o, seed)
		if err != nil {
			return nil, fmt.Errorf("%s repeat %d: %w", name, r, err)
		}
		out.Attempted += res.attempted
		out.Failed += res.failed
		out.Errors = append(out.Errors, res.errs...)
		if r < 0 {
			continue
		}
		out.MeasuredS += res.measuredS
		for k, v := range endToEndMetrics(p, res) {
			e2e[k] = append(e2e[k], v...)
		}
		m := map[string]float64{}
		runMetrics(p, res, m)
		for k, v := range m {
			layers[k] = append(layers[k], v)
		}
	}
	for i := 0; i < spec.ExtraSetups; i++ {
		o.setupOnly = true
		res, err := runPass(p, o, seed)
		if err != nil {
			return nil, fmt.Errorf("%s extra set-up %d: %w", name, i, err)
		}
		e2e["setup_s"] = append(e2e["setup_s"], res.setupS)
	}
	for k, v := range e2e {
		out.EndToEnd[k] = summarise(unitOf(k), v)
	}
	for k, v := range layers {
		out.PerLayer[k] = summarise(unitOf(k), v)
	}
	out.WallS = time.Since(start).Seconds()
	return out, nil
}

func repeatsFor(w *workloadSpec, seconds int) int {
	return max(2, (w.Repeats*seconds+nominalSeconds/2)/nominalSeconds)
}

// contractLine is the one JSON object the driver reads from the last line.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// oneRun is the mode BENCHMARK.json's command runs in: one workload, one
// seed, and on the last line of stdout every end_to_end metric (--trace 0)
// or every per_layer metric (--trace 1) that BENCHMARK.json lists.
func oneRun(o *options) error {
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("--workload: unknown workload %q", o.workload)
	}
	bf, err := loadBenchmarkFile()
	if err != nil {
		return err
	}
	line := contractLine{Metrics: map[string]contractMetric{}}
	var errs []string
	if o.trace == 0 {
		res, err := runWorkload(w.Name, o.sizes(), o.seed, repeatsFor(w, o.seconds))
		if err != nil {
			return err
		}
		printWorkload(os.Stderr, res)
		line.Attempted, line.Failed, errs = res.Attempted, res.Failed, res.Errors
		for _, m := range bf.EndToEnd {
			s, ok := res.EndToEnd[m.Name]
			if !ok {
				return fmt.Errorf("workload %s did not produce end-to-end metric %s", w.Name, m.Name)
			}
			line.Metrics[m.Name] = contractMetric{s.Value, m.Unit}
		}
	} else {
		res, err := traceWorkload(w.Name, o.sizes(), o.seed)
		if err != nil {
			return err
		}
		printTrace(os.Stderr, res)
		line.Attempted, line.Failed, errs = res.attempted, res.failed, res.errs
		for _, m := range bf.PerLayer {
			v, ok := res.Metrics[m.Name]
			if !ok {
				return fmt.Errorf("workload %s did not produce per-layer metric %s", w.Name, m.Name)
			}
			line.Metrics[m.Name] = contractMetric{v, m.Unit}
		}
	}
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "FAILED:", e)
	}
	line.Correct = line.Failed == 0
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	if !line.Correct {
		return fmt.Errorf("%d of %d operations failed", line.Failed, line.Attempted)
	}
	return nil
}

func traceWorkload(name string, sz *sizes, seed uint64) (*traceResult, error) {
	scratch, err := scratchDir()
	if err != nil {
		return nil, err
	}
	p, err := newPlan(name, sz, seed)
	if err != nil {
		return nil, err
	}
	return runTrace(p, seed, scratch)
}

// envelope identifies the host and build a results file was recorded on.
type envelope struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Smoke      bool   `json:"smoke,omitempty"`
	When       string `json:"when"`
}

func newEnvelope(smoke bool) envelope {
	return envelope{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Smoke:      smoke,
		When:       time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit reads HEAD from the enclosing repository's .git without
// running git; a checkout that is not a repository reports "unknown".
func gitCommit() string {
	gitDir := filepath.Join(benchDir(), "..", ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		raw, err := os.ReadFile(filepath.Join(gitDir, name))
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(raw))
	}
	return ref
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
