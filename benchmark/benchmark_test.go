package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary as the
// tpch-dist worker processes.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) != "" {
		if err := workerMain(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestWorkloadsAtTinyScale runs every workload once at a small scale,
// tpch-dist with two real worker processes, and validates what is
// reported.
func TestWorkloadsAtTinyScale(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var reps []*report
	for _, w := range workloads {
		w.Scale = map[string]float64{"tpch": 0.2, "tfacc": 0.1}[w.Kind]
		work := t.TempDir()
		// Seconds 0: one gated repetition, then the traced one.
		rep, err := runWorkload(config{W: w, Seed: 7, Trace: true, WorkDir: work, Exe: exe})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		reps = append(reps, rep)
		if rep.Ops != 2 || rep.Failed != 0 || !rep.correct() {
			t.Errorf("%s: ops %d failed %d (%v), want 2 and 0", w.Name, rep.Ops, rep.Failed, rep.Errors)
		}
		if left, _ := os.ReadDir(work); len(left) != 0 {
			t.Errorf("%s: run left %d entries in its work directory", w.Name, len(left))
		}
		checkReport(t, rep)
		checkLayers(t, w, rep)
	}
	if err := crossCheck(reps); err != nil {
		t.Error(err)
	}
}

// checkReport validates the JSON forms: the full report and both driver
// lines.
func checkReport(t *testing.T, rep *report) {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var full struct {
		Ops      *int `json:"ops"`
		Failed   *int `json:"failed"`
		EndToEnd map[string]struct {
			Unit, Better string
			Bound        *float64
		} `json:"end_to_end"`
		PerLayer map[string]struct{ Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &full); err != nil {
		t.Fatal(err)
	}
	if full.Ops == nil || full.Failed == nil {
		t.Errorf("%s: report lacks ops or failed", rep.Workload)
	}
	if len(full.EndToEnd) != len(endToEnd) || len(full.PerLayer) != len(perLayer) {
		t.Errorf("%s: %d end-to-end and %d per-layer metrics, want %d and %d",
			rep.Workload, len(full.EndToEnd), len(full.PerLayer), len(endToEnd), len(perLayer))
	}
	for name, m := range full.EndToEnd {
		if !nameRE.MatchString(name) || m.Unit == "" || (m.Better != "lower" && m.Better != "higher") || m.Bound == nil {
			t.Errorf("%s: end-to-end metric %q is malformed: %+v", rep.Workload, name, m)
		}
		if v := rep.EndToEnd[name].Value; !(v > 0) {
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", rep.Workload, name, v)
		}
	}
	for name, m := range full.PerLayer {
		if !nameRE.MatchString(name) || m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: per-layer metric %q is malformed: %+v", rep.Workload, name, m)
		}
	}
	for _, traced := range []bool{false, true} {
		line, err := driverLine(rep, traced)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		want := len(endToEnd)
		if traced {
			want = len(perLayer)
		}
		if got.Correct == nil || got.Attempted == nil || got.Failed == nil || len(got.Metrics) != want {
			t.Errorf("%s: driver line (traced %v) is malformed: %s", rep.Workload, traced, line)
		}
	}
}

// checkLayers holds the traced repetition to its arithmetic (layer self
// times plus the residual are the traced wall) and to the contrast the
// workloads exist for.
func checkLayers(t *testing.T, w workload, rep *report) {
	t.Helper()
	var wall, self float64
	for _, s := range rep.Spans {
		if s.Parent < 0 {
			wall += float64(s.EndNs-s.StartNs) / 1e9
		}
	}
	byLayer := layerSelfSeconds(rep.Spans)
	for _, s := range byLayer {
		self += s
	}
	if residual := rep.PerLayer["trace.residual_s"].Value; residual != byLayer["trace"] {
		t.Errorf("%s: trace.residual_s %v is not the root span's self time %v", w.Name, residual, byLayer["trace"])
	}
	if wall <= 0 || math.Abs(self-wall) > 0.01*wall {
		t.Errorf("%s: layer self times sum to %v s, traced wall is %v s", w.Name, self, wall)
	}
	if r := byLayer["trace"]; r > 0.10*wall {
		t.Errorf("%s: %v s of %v s traced wall is unaccounted", w.Name, r, wall)
	}
	layer := func(name string) float64 { return rep.PerLayer[name].Value }
	parallel := w.Mode == modeDMatch || w.Mode == modeDist
	for _, name := range []string{"hypart.partition_s", "hypart.placed_tuples", "dmatch.er_s", "dmatch.supersteps"} {
		if (layer(name) > 0) != parallel {
			t.Errorf("%s: %s = %v", w.Name, name, layer(name))
		}
	}
	for _, name := range []string{"wire.bytes", "wire.frames", "dmatch.worker_load_s"} {
		if (layer(name) > 0) != (w.Mode == modeDist) {
			t.Errorf("%s: %s = %v", w.Name, name, layer(name))
		}
	}
	if (layer("chase.insert_s") > 0) != (w.Mode == modeInsert) {
		t.Errorf("%s: chase.insert_s = %v", w.Name, layer("chase.insert_s"))
	}
	if layer("chase.valuations") <= 0 || layer("relation.tuples") != float64(rep.Tuples) {
		t.Errorf("%s: chase.valuations %v, relation.tuples %v of %d", w.Name, layer("chase.valuations"), layer("relation.tuples"), rep.Tuples)
	}
}

// TestBenchmarkJSONAgrees holds BENCHMARK.json at the repository root to
// the tables compiled into the benchmark.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json measures for %d s, the benchmark's default is %d s", spec.RunSeconds, runSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, spec.Workloads[i].Name, w.Name)
		}
	}
	compare := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the benchmark has %d", len(got), kind, len(want))
		}
		for i, def := range want {
			if got[i] != (metric{def.Name, def.Unit, def.Better, def.Bound}) {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in the benchmark", kind, i, got[i], def)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Layer: "trace", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Layer: "a", StartNs: 10, EndNs: 40},
		{ID: 2, Parent: 0, Layer: "b", StartNs: 30, EndNs: 60},  // overlaps span 1
		{ID: 3, Parent: 0, Layer: "b", StartNs: 90, EndNs: 120}, // runs past its parent
		{ID: 4, Parent: 1, Layer: "c", StartNs: 10, EndNs: 20},
	}
	want := []int64{40, 20, 30, 30, 10}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d: self time %d, want %d", i, got, want[i])
		}
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.start("x", "y", -1))
	nilTracer.derived("x", "y", 0, 0, 0)
}
