package dmatch_test

import (
	"testing"

	"dcer/internal/dmatch"
	"dcer/internal/telemetry"
)

// TestParallelTraceCausality is the causal-trace property test: a DMatch
// run with four workers and a registry attached must leave a span ring
// in which every non-root span's parent ID resolves to a recorded span
// of the same trace, and in which at least two distinct worker lanes
// appear — i.e. the trace really is a tree spread over the workers, not
// a flat list on one lane. It holds over both links: the spans come from
// the one master loop, and only the engines' own chase.Deduce spans need
// the workers in the master's process.
func TestParallelTraceCausality(t *testing.T) {
	for _, lk := range bothLinks {
		t.Run(lk.name, func(t *testing.T) {
			want := []string{"dmatch.Run", "dmatch.superstep", "dmatch.route", "hypart.Partition"}
			if lk.name == "loopback" {
				want = append(want, "chase.Deduce")
			}
			reg := telemetry.NewRegistry()
			if _, err := lk.run(t, paperLoader, dmatch.Options{Workers: 4, Metrics: reg}, nil); err != nil {
				t.Fatal(err)
			}
			checkTraceCausality(t, reg, want)
		})
	}
}

func checkTraceCausality(t *testing.T, reg *telemetry.Registry, wantNames []string) {

	spans := reg.Tracer().Snapshot()
	if len(spans) == 0 {
		t.Fatal("a traced run recorded no spans")
	}

	// Index span IDs per trace, then check parent resolution. The ring
	// is bounded, so a parent could in principle be evicted — but the
	// paper example is far below DefaultTraceCap, so here every parent
	// must be present.
	ids := map[uint64]map[uint64]bool{} // trace ID → span IDs
	for _, sp := range spans {
		if sp.TraceID == 0 {
			continue
		}
		if sp.SpanID == 0 {
			t.Errorf("span %q has a trace ID but no span ID", sp.Name)
			continue
		}
		if ids[sp.TraceID] == nil {
			ids[sp.TraceID] = map[uint64]bool{}
		}
		if ids[sp.TraceID][sp.SpanID] {
			t.Errorf("duplicate span ID %d in trace %d", sp.SpanID, sp.TraceID)
		}
		ids[sp.TraceID][sp.SpanID] = true
	}
	if len(ids) == 0 {
		t.Fatal("no causal spans recorded")
	}
	var roots, workerLanes int
	lanes := map[int32]bool{}
	for _, sp := range spans {
		if sp.TraceID == 0 {
			continue
		}
		if sp.ParentID == 0 {
			roots++
		} else if !ids[sp.TraceID][sp.ParentID] {
			t.Errorf("span %q (trace %d): parent %d not recorded in the same trace",
				sp.Name, sp.TraceID, sp.ParentID)
		}
		if sp.PID == telemetry.PIDDMatch && sp.TID > 0 && !lanes[sp.TID] {
			lanes[sp.TID] = true
			workerLanes++
		}
	}
	if roots == 0 {
		t.Error("no root span (dmatch.Run) recorded")
	}
	if workerLanes < 2 {
		t.Errorf("got %d distinct dmatch worker lanes, want >= 2", workerLanes)
	}

	// The expected structural spans of a parallel run must all appear.
	names := map[string]bool{}
	for _, sp := range spans {
		names[sp.Name] = true
	}
	for _, want := range wantNames {
		if !names[want] {
			t.Errorf("missing expected span %q in trace", want)
		}
	}
}
