package chase_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dcer/internal/chase"
	"dcer/internal/telemetry"
)

// TestEngineMetricsRegistry runs Deduce with a registry attached and checks
// that the registry's gauge views agree with Engine.Stats (one source of
// truth), the per-rule stage histograms saw work, and the tracer recorded
// the Deduce span.
func TestEngineMetricsRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	eng, _ := smallEngine(t, chase.Options{
		ShareIndexes: true,
		Metrics:      reg,
		MetricsLabels: []telemetry.Label{
			telemetry.L("worker", "0"),
		},
	})
	eng.Run()
	st := eng.Stats()

	vals := map[string]float64{}
	hists := map[string]*telemetry.HistSnapshot{}
	for _, s := range reg.Snapshot() {
		switch s.Kind {
		case "histogram":
			if prev, ok := hists[s.Name]; ok {
				prev.Count += s.Histogram.Count
			} else {
				h := *s.Histogram
				hists[s.Name] = &h
			}
		default:
			vals[s.Name] += s.Value
		}
	}

	checks := []struct {
		name string
		want int64
	}{
		{"dcer_chase_valuations", st.Valuations},
		{"dcer_chase_extensions", st.Extensions},
		{"dcer_chase_matches", st.MatchesFound},
		{"dcer_chase_ml_validated", st.MLValidated},
	}
	for _, c := range checks {
		got, ok := vals[c.name]
		if !ok {
			t.Errorf("series %s missing from registry", c.name)
			continue
		}
		if int64(got) != c.want {
			t.Errorf("%s = %v, registry and Stats disagree (want %d)", c.name, got, c.want)
		}
	}
	if vals["dcer_chase_mlcache_entries"] != float64(st.MLCacheSize) {
		t.Errorf("mlcache_entries = %v, want %d", vals["dcer_chase_mlcache_entries"], st.MLCacheSize)
	}

	enum, ok := hists["dcer_chase_rule_enumerate_ns"]
	if !ok || enum.Count == 0 {
		t.Error("no per-rule enumeration timings recorded")
	}

	var sawDeduce bool
	for _, sp := range reg.Tracer().Snapshot() {
		if sp.Name == "chase.Deduce" {
			sawDeduce = true
		}
	}
	if !sawDeduce {
		t.Error("tracer has no chase.Deduce span")
	}
}

// TestWideRoundMemory: the deduce_round wide events of an engine whose
// registry carries a debug logger report the live memory account, not the
// zeros of mirrors nothing refreshed — the dataset's bytes exactly, and Γ's
// bytes once anything has merged.
func TestWideRoundMemory(t *testing.T) {
	var buf bytes.Buffer
	reg := telemetry.NewRegistry()
	reg.SetLogger(telemetry.NewLogger(&buf, "", telemetry.LogDebug))
	eng, _ := smallEngine(t, chase.Options{ShareIndexes: true, Metrics: reg})
	eng.Run()
	ds := eng.Mem().DatasetBytes
	if ds <= 0 {
		t.Fatalf("Mem().DatasetBytes = %d, want > 0", ds)
	}
	rounds, merged := 0, false
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev struct {
			Event       string `json:"event"`
			Round       int    `json:"round"`
			Matches     int64  `json:"matches"`
			MLValidated int64  `json:"ml_validated"`
			MemDataset  int64  `json:"mem_dataset_bytes"`
			MemGamma    int64  `json:"mem_gamma_bytes"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("wide event %q: %v", line, err)
		}
		if ev.Event != "deduce_round" {
			continue
		}
		rounds++
		if ev.MemDataset != ds {
			t.Errorf("round %d: mem_dataset_bytes = %d, want %d", ev.Round, ev.MemDataset, ds)
		}
		// The account is taken at the top of the round, so a round shows
		// what earlier rounds (or Deduce's seed pass) merged.
		if merged && ev.MemGamma <= 0 {
			t.Errorf("round %d: mem_gamma_bytes = %d after facts merged", ev.Round, ev.MemGamma)
		}
		merged = merged || ev.Matches+ev.MLValidated > 0
	}
	if rounds < 2 || !merged {
		t.Fatalf("%d deduce_round events, merged=%v: the run exercises nothing", rounds, merged)
	}
}

// TestEngineMetricsDisabled: with no registry the engine must behave
// identically and Stats must still count.
func TestEngineMetricsDisabled(t *testing.T) {
	eng, _ := smallEngine(t, chase.Options{ShareIndexes: true})
	eng.Run()
	if st := eng.Stats(); st.Valuations == 0 || st.MatchesFound == 0 {
		t.Error("stats not recorded without a registry")
	}
}
