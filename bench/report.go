package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func printSummaries(w io.Writer, title string, m map[string]summary) {
	if len(m) == 0 {
		return
	}
	fmt.Fprintf(w, "  %s\n", title)
	for _, k := range sortedKeys(m) {
		s := m[k]
		fmt.Fprintf(w, "    %-28s %14.4f %-5s  [q1 %.4f  q3 %.4f  n=%d]\n", k, s.Value, s.Unit, s.Q1, s.Q3, s.N)
	}
}

func printWorkload(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "== %s  seed=%d  repeats=%d  wall=%.1fs  measured=%.1fs  attempted=%d  failed=%d\n",
		r.Workload, r.Seed, r.Repeats, r.WallS, r.MeasuredS, r.Attempted, r.Failed)
	printSummaries(w, "end-to-end (median over repeats)", r.EndToEnd)
	printSummaries(w, "per-layer, from the untraced run", r.PerLayer)
}

func printTrace(w io.Writer, t *traceResult) {
	fmt.Fprintf(w, "== trace %s  seed=%d  top rung=%s  wall=%.1fs  spans=%d  attempted=%d  failed=%d\n",
		t.Workload, t.Seed, t.TopRung, t.WallS, len(t.Spans), t.attempted, t.failed)
	fmt.Fprintln(w, "  per-layer")
	for _, k := range sortedKeys(t.Metrics) {
		fmt.Fprintf(w, "    %-28s %14.4f %s\n", k, t.Metrics[k], unitOf(k))
	}
	printLayers(w, t)
}

// printLayers prints the self-time table and names the largest layer.
func printLayers(w io.Writer, t *traceResult) {
	for _, kind := range kindNames {
		top, ok := t.TopUS[kind]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  self time per %s, median us (share of the %s rung's %.2f us)\n", kind, t.TopRung, top)
		var largest layerRow
		for _, l := range t.Layers {
			if l.Kind != kind {
				continue
			}
			fmt.Fprintf(w, "    %-14s %10.2f  %5.1f%%\n", l.Layer, l.US, 100*l.Share)
			if l.US > largest.US {
				largest = l
			}
		}
		fmt.Fprintf(w, "    %-14s %10.2f  %5.1f%%   largest layer: %s\n", "sum", t.SumUS[kind], 100*t.SumUS[kind]/top, largest.Layer)
	}
}

// suiteResult is what `bench run` writes: every workload's untraced result.
type suiteResult struct {
	Env       envelope          `json:"env"`
	Seed      uint64            `json:"seed"`
	WallS     float64           `json:"wall_s"`
	Workloads []*workloadResult `json:"workloads"`
}

func runSuite(o *options, seed uint64, path string) (*suiteResult, error) {
	start := time.Now()
	out := &suiteResult{Env: newEnvelope(o.smoke), Seed: seed}
	failed := 0
	for i := range workloadSpecs {
		w := &workloadSpecs[i]
		res, err := runWorkload(w.Name, o.sizes(), seed, repeatsFor(w, o.seconds))
		if err != nil {
			return nil, err
		}
		printWorkload(os.Stdout, res)
		for _, e := range res.Errors {
			fmt.Println("FAILED:", e)
		}
		failed += res.Failed
		out.Workloads = append(out.Workloads, res)
	}
	out.WallS = time.Since(start).Seconds()
	fmt.Printf("suite wall %.1fs\n", out.WallS)
	if path != "" {
		if err := writeJSON(path, out); err != nil {
			return nil, err
		}
	}
	if failed > 0 {
		return out, fmt.Errorf("failed_share > 0: %d operations failed", failed)
	}
	return out, nil
}

func tracePath(workload string) string {
	return filepath.Join(benchDir(), "results", "trace."+workload+".json")
}

func traceCmd(o *options) error {
	if findWorkload(o.workload) == nil {
		return fmt.Errorf("trace: unknown workload %q", o.workload)
	}
	res, err := traceWorkload(o.workload, o.sizes(), o.seed)
	if err != nil {
		return err
	}
	printTrace(os.Stdout, res)
	for _, e := range res.errs {
		fmt.Println("FAILED:", e)
	}
	if err := writeJSON(tracePath(o.workload), res); err != nil {
		return err
	}
	if res.failed > 0 {
		return fmt.Errorf("%d operations failed", res.failed)
	}
	return nil
}

// reportCmd prints the self-time table of every trace file present.
func reportCmd() error {
	found := false
	for _, w := range workloadSpecs {
		raw, err := os.ReadFile(tracePath(w.Name))
		if err != nil {
			continue
		}
		var t traceResult
		if err := json.Unmarshal(raw, &t); err != nil {
			return fmt.Errorf("%s: %w", tracePath(w.Name), err)
		}
		found = true
		fmt.Printf("== %s (seed %d)  trace.overhead_pct %.2f%%  client.p50_drift_ratio %.2f\n",
			t.Workload, t.Seed, t.Metrics["trace.overhead_pct"], t.Metrics["client.p50_drift_ratio"])
		printLayers(os.Stdout, &t)
	}
	if !found {
		return fmt.Errorf("no %s: run `bench trace <workload>` first", tracePath("<workload>"))
	}
	return nil
}

// aaRow compares one (metric, workload) pair between two sets of runs of
// the same code.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	WorseBy  float64 `json:"worse_by"` // share of A by which B is worse (negative: better)
	Spread   float64 `json:"spread"`   // larger of the two sets' (q3-q1)/median over repeats
	Bound    float64 `json:"bound"`
	Verdict  string  `json:"verdict"` // pass | unresolved | fail
}

type aaResult struct {
	Env   envelope `json:"env"`
	SeedA uint64   `json:"seed_a"`
	SeedB uint64   `json:"seed_b"`
	Rows  []aaRow  `json:"rows"`
}

// aaCmd runs the whole suite twice on the same code, the second time on a
// seed no size was tuned on, and holds every end-to-end metric to its own
// bound in both directions: if two runs of one commit cannot agree within
// the bound, the bound cannot tell a regression from noise.
func aaCmd(o *options) error {
	results := filepath.Join(benchDir(), "results")
	a, err := runSuite(o, o.seed, filepath.Join(results, "baseline.json"))
	if err != nil {
		return err
	}
	b, err := runSuite(o, aaSeedB, "")
	if err != nil {
		return err
	}
	out := aaResult{Env: a.Env, SeedA: o.seed, SeedB: aaSeedB}
	bad := 0
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		for _, spec := range endToEnd {
			sa, ok := wa.EndToEnd[spec.Name]
			if !ok {
				continue
			}
			sb := wb.EndToEnd[spec.Name]
			worse := (sb.Value - sa.Value) / sa.Value
			if spec.Better == "higher" {
				worse = -worse
			}
			row := aaRow{Workload: wa.Workload, Metric: spec.Name, Unit: spec.Unit, A: sa.Value, B: sb.Value,
				WorseBy: worse, Bound: spec.Bound, Verdict: "pass",
				Spread: max((sa.Q3-sa.Q1)/sa.Value, (sb.Q3-sb.Q1)/sb.Value)}
			switch {
			case worse <= spec.Bound && -worse <= spec.Bound:
			case row.Spread > spec.Bound:
				row.Verdict = "unresolved"
				bad++
			default:
				row.Verdict = "fail"
				bad++
			}
			out.Rows = append(out.Rows, row)
			fmt.Printf("%-10s %-18s %-16s a=%-12.4f b=%-12.4f worse_by=%+6.1f%%  spread=%5.1f%%  bound=%4.0f%%\n",
				row.Verdict, row.Workload, row.Metric, row.A, row.B, 100*row.WorseBy, 100*row.Spread, 100*row.Bound)
		}
	}
	if err := writeJSON(filepath.Join(results, "aa.json"), out); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("aa: %d (metric, workload) rows did not agree within their bound", bad)
	}
	return nil
}
