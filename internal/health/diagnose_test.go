package health_test

import (
	"strings"
	"testing"

	"dcer/internal/health"
)

func TestDiagnoseUnattached(t *testing.T) {
	d := health.Diagnose(health.Report{})
	if d.Healthy() {
		t.Fatal("an unattached report diagnosed healthy")
	}
	if len(d.Lines) != 1 || !strings.HasPrefix(d.Lines[0], "FAIL") {
		t.Fatalf("unexpected diagnosis: %q", d.Lines)
	}
}

func TestDiagnoseHealthy(t *testing.T) {
	rep := health.Report{
		Attached: true,
		Checks: []health.CheckReport{
			{Name: "unionfind_roots", Status: "pass", Runs: 3, Samples: 192},
			{Name: "stall_watchdog", Status: "pass"},
		},
		Heartbeats: []health.HeartbeatReport{{Name: "chase_drain", Beats: 12}},
	}
	d := health.Diagnose(rep)
	if !d.Healthy() {
		t.Fatalf("healthy report diagnosed %d failures:\n%s", d.Failures, d)
	}
}

// TestDiagnoseFailuresAndWarnings counts the failures of a report: a
// failing check, and one that violated before it recovered.
func TestDiagnoseFailuresAndWarnings(t *testing.T) {
	rep := health.Report{
		Attached: true,
		Checks: []health.CheckReport{
			{Name: "gamma_provenance", Status: "fail", Runs: 2, Samples: 64, Violations: 1, Detail: "match (3, 5) has no justification"},
			// A check that violated earlier and since recovered still fails
			// the diagnosis: the violation demands a look.
			{Name: "unionfind_roots", Status: "pass", Runs: 9, Violations: 2},
		},
	}
	d := health.Diagnose(rep)
	if d.Healthy() {
		t.Fatal("failing checks diagnosed healthy")
	}
	if d.Failures != 2 {
		t.Fatalf("failures=%d, want 2:\n%s", d.Failures, d)
	}
	if !strings.Contains(d.String(), "no justification") {
		t.Error("diagnosis drops the failure detail")
	}
}

func TestDiagnoseStallBundlePointer(t *testing.T) {
	rep := health.Report{
		Attached: true,
		Checks: []health.CheckReport{
			{Name: "stall_watchdog", Status: "pass", Violations: 1, Detail: "heartbeat wedged"},
		},
		Stalls:     1,
		Bundles:    1,
		LastBundle: "/tmp/dcer-health/bundle-1-123",
	}
	d := health.Diagnose(rep)
	if d.Healthy() {
		t.Fatal("a stalled report diagnosed healthy")
	}
	if !strings.Contains(d.String(), "bundle-1-123") {
		t.Error("diagnosis does not point the operator at the flight-recorder bundle")
	}
}
