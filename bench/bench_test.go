package main

import (
	"regexp"
	"slices"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json and the tables in spec.go must say the same thing: the
// file lists exactly the workloads, and exactly the metrics every workload
// produces.
func TestSpecMatchesBenchmarkFile(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds = %d, sizes were frozen for %d", bf.RunSeconds, nominalSeconds)
	}
	if !slices.Equal(bf.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", bf.Paths)
	}
	if len(bf.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(bf.Workloads), len(workloadSpecs))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadSpecs[i].Name || w.Why != workloadSpecs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go %q (%q)", i, w.Name, w.Why, workloadSpecs[i].Name, workloadSpecs[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	var e2e, layers []metricSpec
	for _, m := range endToEnd {
		if m.On == nil {
			e2e = append(e2e, m)
		}
	}
	for _, m := range perLayer {
		if m.On == nil {
			layers = append(layers, metricSpec{Name: m.Name, Unit: m.Unit, Better: m.Better})
		}
	}
	var gotE2E, gotLayers []metricSpec
	for _, m := range bf.EndToEnd {
		gotE2E = append(gotE2E, metricSpec{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
	}
	for _, m := range bf.PerLayer {
		gotLayers = append(gotLayers, metricSpec{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	same := func(a, b metricSpec) bool {
		return a.Name == b.Name && a.Unit == b.Unit && a.Better == b.Better && a.Bound == b.Bound
	}
	if !slices.EqualFunc(gotE2E, e2e, same) {
		t.Errorf("end_to_end:\n BENCHMARK.json %v\n spec.go        %v", gotE2E, e2e)
	}
	if !slices.EqualFunc(gotLayers, layers, same) {
		t.Errorf("per_layer:\n BENCHMARK.json %v\n spec.go        %v", gotLayers, layers)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q breaks the naming rule", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q used twice", m.Name)
		}
		seen[m.Name] = true
		if m.Bound > 0.25 {
			t.Errorf("%s: bound %v above 0.25", m.Name, m.Bound)
		}
	}
	if !slices.ContainsFunc(bf.EndToEnd, func(m struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}) bool {
		return m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}) {
		t.Error("end_to_end lacks setup_s in s, lower")
	}
}

// Every workload emits exactly the metrics spec.go says it is measured on
// — nothing missing, nothing a bypassed layer should not have — with no
// failed operation; and the counts that must repeat exactly do so across
// two traced runs of one seed.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	for _, w := range workloadSpecs {
		t.Run(w.Name, func(t *testing.T) {
			run, err := runWorkload(w.Name, &smokeSizes, 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := traceWorkload(w.Name, &smokeSizes, 1)
			if err != nil {
				t.Fatal(err)
			}
			if run.Failed+tr.failed > 0 {
				t.Fatalf("failed operations: run %d %v, trace %d %v", run.Failed, run.Errors, tr.failed, tr.errs)
			}
			for _, m := range endToEnd {
				if _, ok := run.EndToEnd[m.Name]; ok != m.on(w.Name) {
					t.Errorf("end-to-end %s: emitted=%v, spec says on=%v", m.Name, ok, m.on(w.Name))
				}
			}
			for name := range run.EndToEnd {
				if findMetric(endToEnd, name) == nil {
					t.Errorf("end-to-end %s emitted but not in spec.go", name)
				}
			}
			for _, m := range perLayer {
				_, inRun := run.PerLayer[m.Name]
				_, inTrace := tr.Metrics[m.Name]
				if (inRun || inTrace) != m.on(w.Name) {
					t.Errorf("per-layer %s: run=%v trace=%v, spec says on=%v", m.Name, inRun, inTrace, m.on(w.Name))
				}
			}
			for _, name := range append(sortedKeys(run.PerLayer), sortedKeys(tr.Metrics)...) {
				if findMetric(perLayer, name) == nil {
					t.Errorf("per-layer %s emitted but not in spec.go", name)
				}
			}
			if len(tr.Spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			if len(tr.Spans) > tr.spanCap {
				t.Errorf("tracer sized for %d spans recorded %d: it regrew inside the traced loops", tr.spanCap, len(tr.Spans))
			}

			again, err := traceWorkload(w.Name, &smokeSizes, 1)
			if err != nil {
				t.Fatal(err)
			}
			exact := []string{"cracker.pieces_start", "cracker.pieces_end", "core.boosts"}
			switch w.Name {
			case wCold:
				exact = append(exact, "core.idle_actions", "core.idle_work_per_action")
			case wBursty:
				exact = append(exact, "snapshot.replayed", "core.idle_actions")
			case wPoint:
				if tr.Metrics["cracker.pieces_start"] != tr.Metrics["cracker.pieces_end"] {
					t.Errorf("wire_point reorganised during the measured phase: %v pieces before, %v after",
						tr.Metrics["cracker.pieces_start"], tr.Metrics["cracker.pieces_end"])
				}
				if s := run.PerLayer["cracker.pieces_start"]; s.Value != run.PerLayer["cracker.pieces_end"].Value {
					t.Errorf("wire_point (2 clients) reorganised during the measured phase: %v", s)
				}
			}
			for _, name := range exact {
				if tr.Metrics[name] != again.Metrics[name] {
					t.Errorf("%s differs between two runs of seed 1: %v, %v", name, tr.Metrics[name], again.Metrics[name])
				}
			}
		})
	}
}

// The seed is the only workload argument: it fixes the statement stream,
// and another seed gives another stream.
func TestSeedDecidesTheStream(t *testing.T) {
	texts := func(seed uint64, name string) []string {
		p, err := newPlan(name, &smokeSizes, seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, ph := range p.phases {
			for _, stream := range ph {
				for i := range stream {
					out = append(out, stream[i].text)
				}
			}
		}
		return out
	}
	for _, w := range workloadSpecs {
		a, b, c := texts(1, w.Name), texts(1, w.Name), texts(2, w.Name)
		if !slices.Equal(a, b) {
			t.Errorf("%s: seed 1 gave two different streams", w.Name)
		}
		if slices.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w.Name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, med, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
}
