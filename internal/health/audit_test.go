package health_test

import (
	"encoding/json"
	"slices"
	"testing"

	"dcer/internal/eval"
	"dcer/internal/health"
	"dcer/internal/relation"
	"dcer/internal/telemetry"
	"dcer/internal/unionfind"
)

func TestSampleIDs(t *testing.T) {
	all := health.SampleIDs(5, 10, 1)
	if len(all) != 5 {
		t.Fatalf("k >= n: %d ids, want all 5", len(all))
	}
	for i, id := range all {
		if id != i {
			t.Fatalf("k >= n sample is not the identity: %v", all)
		}
	}
	a := health.SampleIDs(1000, 16, 7)
	b := health.SampleIDs(1000, 16, 7)
	if len(a) != 16 {
		t.Fatalf("bounded sample has %d ids, want 16", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different samples")
		}
		if a[i] < 0 || a[i] >= 1000 {
			t.Fatalf("sampled id %d out of range", a[i])
		}
	}
	c := health.SampleIDs(1000, 16, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical samples")
	}
}

func TestAuditUnionFindHealthy(t *testing.T) {
	u := unionfind.New(100)
	for i := 0; i < 99; i += 2 {
		u.Union(i, i+1)
	}
	if err := health.AuditUnionFind(u, health.SampleIDs(u.Len(), u.Len(), 1)); err != nil {
		t.Fatalf("healthy forest failed the audit: %v", err)
	}
}

func TestAuditUnionFindDetectsCycle(t *testing.T) {
	u := unionfind.New(10)
	u.Union(0, 1)
	// Plant a 2-cycle: neither node is a self-parented root.
	u.SetParent(2, 3)
	u.SetParent(3, 2)
	err := health.AuditUnionFind(u, health.SampleIDs(u.Len(), u.Len(), 1))
	if err == nil {
		t.Fatal("audit passed a forest with a parent cycle")
	}
}

func TestAuditUnionFindDetectsOutOfRange(t *testing.T) {
	u := unionfind.New(10)
	u.SetParent(4, 17)
	err := health.AuditUnionFind(u, health.SampleIDs(u.Len(), u.Len(), 1))
	if err == nil {
		t.Fatal("audit passed a forest with an out-of-range parent link")
	}
}

// TestMonitorReportRoundTrip: the JSON served at /debug/health (and
// stored in bundles) must unmarshal back into an equivalent Report, since
// cmd/doctor diagnoses the decoded form.
func TestMonitorReportRoundTrip(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := health.NewMonitor(health.Options{Registry: reg, DiagnosisDir: t.TempDir()})
	defer m.Stop()
	c := m.Check("roundtrip_check")
	c.Pass(10)
	c.Fail(3, "a %s failure", "sample")
	m.Heartbeat("roundtrip_hb").Beat()

	rep := m.Report()
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back health.Report
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Attached || len(back.Checks) != len(rep.Checks) || len(back.Heartbeats) != len(rep.Heartbeats) {
		t.Fatalf("round-trip lost structure: %+v", back)
	}
	var found bool
	for _, cr := range back.Checks {
		if cr.Name == "roundtrip_check" {
			found = true
			if cr.Status != health.StatusFail.String() || cr.Samples != 13 || cr.Violations != 1 {
				t.Errorf("check round-trip: %+v", cr)
			}
		}
	}
	if !found {
		t.Fatal("round-trip dropped the check")
	}
	// The registry exports the check's status gauge and the monitor's
	// stall counter.
	names := map[string]bool{}
	for _, s := range reg.Snapshot() {
		names[s.Name] = true
	}
	for _, series := range []string{"dcer_health_check_status", "dcer_health_check_violations", "dcer_health_stalls"} {
		if !names[series] {
			t.Errorf("registry snapshot lacks %s", series)
		}
	}
}

// TestAccuracyObservatory feeds the accuracy estimator a known mix of
// true and false positives and a recall probe, and checks the report and
// the per-rule false-positive attribution.
func TestAccuracyObservatory(t *testing.T) {
	truth := eval.NewTruth([][2]relation.TID{{1, 2}, {3, 4}, {5, 6}, {7, 8}})
	reg := telemetry.NewRegistry()
	m := health.NewMonitor(health.Options{Registry: reg, DiagnosisDir: t.TempDir(), Truth: truth, SampleSize: 64, Seed: 1})
	defer m.Stop()
	acc := m.Accuracy()
	if acc == nil {
		t.Fatal("Truth set but no accuracy observatory")
	}

	pairs := [][2]relation.TID{{1, 2}, {3, 4}, {9, 10}} // 2 tp, 1 fp
	acc.ObserveMatches(pairs, func(p [2]relation.TID) string {
		if p == [2]relation.TID{9, 10} {
			return "phi9"
		}
		return ""
	})
	// The engine's equivalence knows {1,2} and {3,4} but not the rest.
	acc.ObserveRecall(func(x, y relation.TID) bool {
		return (x == 1 && y == 2) || (x == 3 && y == 4)
	})

	rep := m.Report()
	a := rep.Accuracy
	if a == nil {
		t.Fatal("report lacks the accuracy section")
	}
	if a.SampledTP != 2 || a.SampledFP != 1 {
		t.Fatalf("tp=%d fp=%d, want 2 and 1", a.SampledTP, a.SampledFP)
	}
	if want := 2.0 / 3.0; a.Precision < want-1e-9 || a.Precision > want+1e-9 {
		t.Errorf("precision = %v, want %v", a.Precision, want)
	}
	if a.RecallSampled != 4 || a.RecallMatched != 2 {
		t.Fatalf("recall probe %d/%d, want 2/4", a.RecallMatched, a.RecallSampled)
	}
	if a.FPByRule["phi9"] != 1 {
		t.Errorf("false positive not attributed: %v", a.FPByRule)
	}
	// The gauges export the same values.
	found := map[string]float64{}
	for _, s := range reg.Snapshot() {
		if s.Kind == "gauge" {
			found[s.Name] = s.Value
		}
	}
	if v, ok := found["dcer_health_precision"]; !ok || v < 0.66 || v > 0.67 {
		t.Errorf("dcer_health_precision gauge = %v (present %v)", v, ok)
	}
	if v, ok := found["dcer_health_recall"]; !ok || v != 0.5 {
		t.Errorf("dcer_health_recall gauge = %v (present %v)", v, ok)
	}
}

// TestAccuracyObserveFresh: each call stride-samples at most SampleSize of
// the matches added since the last, so no match is scored twice.
func TestAccuracyObserveFresh(t *testing.T) {
	m := health.NewMonitor(health.Options{Registry: telemetry.NewRegistry(), DiagnosisDir: t.TempDir(),
		Truth: eval.NewTruth([][2]relation.TID{{1, 2}}), SampleSize: 4, Seed: 1})
	defer m.Stop()
	acc := m.Accuracy()
	var scored []int
	pair := func(i int) [2]relation.TID {
		scored = append(scored, i)
		return [2]relation.TID{relation.TID(2 * i), relation.TID(2*i + 1)}
	}
	seen := acc.ObserveFresh(0, 10, pair, nil)
	seen = acc.ObserveFresh(seen, 10, pair, nil)
	seen = acc.ObserveFresh(seen, 13, pair, nil)
	if want := []int{0, 3, 6, 9, 10, 11, 12}; seen != 13 || !slices.Equal(scored, want) {
		t.Fatalf("scored %v up to %d, want %v up to 13", scored, seen, want)
	}
	if a := m.Report().Accuracy; a.SampledTP+a.SampledFP != 7 {
		t.Fatalf("%d pairs scored, want 7", a.SampledTP+a.SampledFP)
	}
}
