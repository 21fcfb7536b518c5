package health

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"dcer/internal/telemetry"
)

// TestResolveDeadlineProperties property-tests the deadline knob: any
// configured value resolves to something the watchdog can actually use —
// nonpositive means the generous default, positives never clamp below the
// floor, and values at or above the floor pass through untouched.
func TestResolveDeadlineProperties(t *testing.T) {
	prop := func(raw int64) bool {
		d := time.Duration(raw)
		got := resolveDeadline(d)
		switch {
		case d <= 0:
			return got == DefaultStallDeadline
		case d < MinStallDeadline:
			return got == MinStallDeadline
		default:
			return got == d
		}
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	if got := resolveDeadline(0); got != DefaultStallDeadline {
		t.Errorf("resolveDeadline(0) = %v, want %v", got, DefaultStallDeadline)
	}
	if got := resolveDeadline(time.Nanosecond); got != MinStallDeadline {
		t.Errorf("resolveDeadline(1ns) = %v, want the %v floor", got, MinStallDeadline)
	}
}

// TestResolvePollProperties property-tests the derived wake cadence: for
// any poll knob and any resolved deadline, the cadence stays within
// [MinPollInterval, MaxPollInterval] and never exceeds the deadline — so
// a stall is always detected within one deadline plus one poll.
func TestResolvePollProperties(t *testing.T) {
	prop := func(rawPoll, rawDeadline int64) bool {
		deadline := resolveDeadline(time.Duration(rawDeadline))
		p := resolvePoll(time.Duration(rawPoll), deadline)
		return p >= MinPollInterval && p <= MaxPollInterval && p <= deadline
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	// An unset knob derives deadline/8.
	if got := resolvePoll(0, 80*time.Millisecond); got != 10*time.Millisecond {
		t.Errorf("resolvePoll(0, 80ms) = %v, want 10ms", got)
	}
}

// TestWatchdogNoFalsePositive drives the watchdog scan with an injected
// clock over a heartbeat that keeps beating: no matter how much simulated
// time passes between scans, a progressing loop must never be declared
// stalled.
func TestWatchdogNoFalsePositive(t *testing.T) {
	m := NewMonitor(Options{DiagnosisDir: t.TempDir()})
	defer m.Stop()
	hb := m.Heartbeat("loop")
	hb.Enter()
	defer hb.Exit()

	const deadline = 50 * time.Millisecond
	states := make(map[*Heartbeat]*wdState)
	now := time.Unix(0, 0)
	for i := 0; i < 1000; i++ {
		hb.Beat()
		now = now.Add(deadline * 3) // each scan is far past the deadline, but beats moved
		m.pollOnce(states, now, deadline)
	}
	if got := m.Report().Stalls; got != 0 {
		t.Fatalf("progressing heartbeat produced %d stall(s)", got)
	}
	if st := m.stallCheck.Status(); st != StatusPass {
		t.Fatalf("stall_watchdog status = %v, want pass", st)
	}
}

// TestWatchdogIdleNeverStalls: a heartbeat outside its Enter/Exit bracket
// is idle and must not alarm however long it sits.
func TestWatchdogIdleNeverStalls(t *testing.T) {
	m := NewMonitor(Options{DiagnosisDir: t.TempDir()})
	defer m.Stop()
	m.Heartbeat("idle_loop")

	const deadline = 50 * time.Millisecond
	states := make(map[*Heartbeat]*wdState)
	now := time.Unix(0, 0)
	for i := 0; i < 100; i++ {
		now = now.Add(time.Hour)
		m.pollOnce(states, now, deadline)
	}
	if got := m.Report().Stalls; got != 0 {
		t.Fatalf("idle heartbeat produced %d stall(s)", got)
	}
}

// TestWatchdogForcedStall wedges a heartbeat (active, no beats) under an
// injected clock and asserts the full stall pipeline: exactly one stall
// and one flight-recorder bundle per episode, a complete loadable bundle,
// a diagnosis that fails, recovery of the check when beats resume, and a
// second episode counted separately.
func TestWatchdogForcedStall(t *testing.T) {
	dir := t.TempDir()
	m := NewMonitor(Options{DiagnosisDir: dir})
	defer m.Stop()
	hb := m.Heartbeat("wedged")
	hb.Enter()
	defer hb.Exit()

	const deadline = 50 * time.Millisecond
	states := make(map[*Heartbeat]*wdState)
	now := time.Unix(0, 0)
	m.pollOnce(states, now, deadline) // arms the state
	for i := 0; i < 5; i++ {
		now = now.Add(deadline)
		m.pollOnce(states, now, deadline)
	}
	rep := m.Report()
	if rep.Stalls != 1 {
		t.Fatalf("wedged heartbeat: %d stall(s), want exactly 1 per episode", rep.Stalls)
	}
	if rep.Bundles != 1 || rep.LastBundle == "" {
		t.Fatalf("stall captured %d bundle(s) (last %q), want 1", rep.Bundles, rep.LastBundle)
	}

	b, err := LoadBundle(rep.LastBundle)
	if err != nil {
		t.Fatalf("LoadBundle(%s): %v", rep.LastBundle, err)
	}
	if len(b.Missing) != 0 {
		t.Errorf("bundle incomplete, missing %v", b.Missing)
	}
	if b.Manifest.Reason != "stall:wedged" {
		t.Errorf("bundle reason = %q, want stall:wedged", b.Manifest.Reason)
	}
	if !b.Report.Attached {
		t.Error("bundle health report does not round-trip Attached")
	}
	if d := Diagnose(rep); d.Healthy() {
		t.Error("diagnosis of a stalled process reports healthy")
	}

	// Progress resumes: the check recovers but the history stays.
	hb.Beat()
	now = now.Add(time.Millisecond)
	m.pollOnce(states, now, deadline)
	if st := m.stallCheck.Status(); st != StatusPass {
		t.Fatalf("stall_watchdog did not recover after beats resumed: %v", st)
	}
	if d := Diagnose(m.Report()); d.Healthy() {
		t.Error("recovered stall check erased the violation history from the diagnosis")
	}

	// A second wedge is a new episode: one more stall, one more bundle.
	for i := 0; i < 5; i++ {
		now = now.Add(deadline)
		m.pollOnce(states, now, deadline)
	}
	rep = m.Report()
	if rep.Stalls != 2 || rep.Bundles != 2 {
		t.Fatalf("second episode: stalls=%d bundles=%d, want 2 and 2", rep.Stalls, rep.Bundles)
	}
}

// TestWatchdogLive runs the real goroutine end to end with the clamped
// minimum deadline: a wedged heartbeat must be detected, and Stop must
// terminate the goroutine cleanly.
func TestWatchdogLive(t *testing.T) {
	m := NewMonitor(Options{DiagnosisDir: t.TempDir(), StallDeadline: MinStallDeadline})
	m.Start()
	m.Start() // idempotent
	hb := m.Heartbeat("live")
	hb.Enter()
	deadline := time.Now().Add(5 * time.Second)
	for m.Report().Stalls == 0 && time.Now().Before(deadline) {
		time.Sleep(MinStallDeadline / 2)
	}
	hb.Exit()
	m.Stop()
	m.Stop() // idempotent
	if got := m.Report().Stalls; got == 0 {
		t.Fatal("live watchdog never detected the wedged heartbeat")
	}
}

// TestMonitorRidesRegistry: a monitor built on a registry is what Of finds
// there, and it tees the registry's logger into the wide-event tail its
// bundles carry; Stop detaches both.
func TestMonitorRidesRegistry(t *testing.T) {
	var out bytes.Buffer
	reg := telemetry.NewRegistry()
	log := telemetry.NewLogger(&out, "", telemetry.LogDebug)
	reg.SetLogger(log)
	if Of(reg) != nil || Of(nil) != nil {
		t.Fatal("Of found a monitor before one was built")
	}
	m := NewMonitor(Options{Registry: reg, DiagnosisDir: t.TempDir()})
	if Of(reg) != m {
		t.Fatal("Of does not return the monitor built on the registry")
	}
	log.Wide(telemetry.LogDebug, "deduce_round", telemetry.F{K: "round", V: 7})
	dir, err := m.CaptureBundle("manual")
	if err != nil {
		t.Fatal(err)
	}
	tail, err := os.ReadFile(filepath.Join(dir, bundleWideTail))
	if err != nil || !strings.Contains(string(tail), `"event":"deduce_round","round":7`) {
		t.Errorf("bundle wide-event tail %q (%v) lacks the logged event", tail, err)
	}
	m.Stop()
	log.Wide(telemetry.LogDebug, "deduce_round", telemetry.F{K: "round", V: 8})
	if Of(reg) != nil || m.tail.Total() != 1 {
		t.Errorf("after Stop: Of = %v, tail holds %d events, want nil and 1", Of(reg), m.tail.Total())
	}
}
