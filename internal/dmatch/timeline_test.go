package dmatch_test

import (
	"reflect"
	"strings"
	"testing"

	"dcer/internal/datagen"
	"dcer/internal/dmatch"
	"dcer/internal/mlpred"
	"dcer/internal/telemetry"
)

// TestTimelineJSONRoundTrip runs DMatch on the paper example, dumps the
// superstep timeline as JSON, parses it back, and checks the round trip
// is lossless and consistent with the Result counters.
func TestTimelineJSONRoundTrip(t *testing.T) {
	d, _ := datagen.PaperExample()
	rules, err := datagen.PaperRules(d.DB)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dmatch.Run(d, rules, mlpred.DefaultRegistry(), dmatch.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline()
	if tl.Workers != 3 {
		t.Fatalf("timeline workers = %d, want 3", tl.Workers)
	}
	if len(tl.Steps) != res.Supersteps {
		t.Fatalf("timeline has %d steps, result reports %d supersteps", len(tl.Steps), res.Supersteps)
	}
	var routed, makespan int64
	for _, ss := range tl.Steps {
		routed += ss.MessagesRouted
		makespan += ss.MakespanNs
		if len(ss.Workers) != 3 {
			t.Fatalf("step %d has %d worker rows, want 3", ss.Step, len(ss.Workers))
		}
		for _, w := range ss.Workers {
			if w.BusyNs+w.IdleNs != ss.MakespanNs {
				t.Errorf("step %d worker %d: busy %d + idle %d != makespan %d",
					ss.Step, w.Worker, w.BusyNs, w.IdleNs, ss.MakespanNs)
			}
		}
	}
	if routed != res.MessagesRouted {
		t.Errorf("timeline routed %d messages, result reports %d", routed, res.MessagesRouted)
	}
	if got := tl.Makespan(); int64(got) != makespan || got <= 0 {
		t.Errorf("Makespan() = %v, the steps' makespans sum to %d ns", got, makespan)
	}

	data, err := tl.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := dmatch.ParseTimeline(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tl, back) {
		t.Error("timeline JSON round trip is lossy")
	}

	g := tl.Gantt()
	if !strings.Contains(g, "superstep 0") || !strings.Contains(g, "w0") {
		t.Errorf("Gantt output missing expected rows:\n%s", g)
	}
}

// TestDMatchMetrics attaches a registry to a run and checks the BSP
// series are live — over both links, since the series come from the one master loop; the per-worker
// chase series need the engines in the master's process.
func TestDMatchMetrics(t *testing.T) {
	for _, lk := range bothLinks {
		t.Run(lk.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			res, err := lk.run(t, paperLoader, dmatch.Options{Workers: 2, Metrics: reg}, nil)
			if err != nil {
				t.Fatal(err)
			}
			vals := map[string]float64{}
			hists := map[string]uint64{}
			for _, s := range reg.Snapshot() {
				if s.Histogram != nil {
					hists[s.Name] += s.Histogram.Count
				} else {
					vals[s.Name] += s.Value
				}
			}
			if got := vals["dcer_dmatch_messages_routed"]; int64(got) != res.MessagesRouted {
				t.Errorf("messages_routed series = %v, result %d", got, res.MessagesRouted)
			}
			if got := vals["dcer_dmatch_facts_produced"]; int64(got) != res.FactsProduced {
				t.Errorf("facts_produced series = %v, result %d", got, res.FactsProduced)
			}
			if _, ok := vals["dcer_dmatch_step_skew"]; !ok {
				t.Error("no worker-skew series")
			}
			if hists["dcer_dmatch_worker_busy_ns"] == 0 {
				t.Error("no per-worker busy observations")
			}
			if hists["dcer_hypart_fragment_size"] == 0 {
				t.Error("no hypart fragment-size observations")
			}
			if lk.name != "loopback" {
				if got := vals["dcer_wire_frames_out"]; int64(got) != res.Wire.FramesOut || got == 0 {
					t.Errorf("wire_frames_out series = %v, result %d", got, res.Wire.FramesOut)
				}
				return
			}
			if hists["dcer_chase_rule_enumerate_ns"] == 0 {
				t.Error("worker engines recorded no rule timings")
			}
			var doc strings.Builder
			if err := reg.WriteProm(&doc); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(doc.String(), `dcer_chase_valuations{worker="0"}`) {
				t.Errorf("prom text lacks per-worker chase series:\n%s", doc.String())
			}
		})
	}
}
