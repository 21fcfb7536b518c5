package health

import (
	"fmt"
	"sort"
	"strings"
)

// Diagnosis is the human-readable reading of a health report: one line
// per finding plus the failure total. cmd/doctor prints it and exits
// nonzero when Healthy() is false.
type Diagnosis struct {
	Lines    []string
	Failures int
}

// Healthy reports whether the diagnosis found no failures.
func (d Diagnosis) Healthy() bool { return d.Failures == 0 }

// String renders the diagnosis, one finding per line.
func (d Diagnosis) String() string { return strings.Join(d.Lines, "\n") }

// Diagnose reads a health report the way an operator would: every check's
// latest status (a fail or any recorded violation is a failure — a check
// that recovered after violating still demands a look), the stall count,
// heartbeat liveness, accuracy gauges, and calibration coverage.
func Diagnose(rep Report) Diagnosis {
	var d Diagnosis
	add := func(format string, args ...any) {
		d.Lines = append(d.Lines, fmt.Sprintf(format, args...))
	}
	if !rep.Attached {
		d.Failures++
		add("FAIL no health monitor attached to this process")
		return d
	}
	for _, c := range rep.Checks {
		switch {
		case c.Status == StatusFail.String() || c.Violations > 0:
			d.Failures++
			detail := c.Detail
			if detail == "" {
				detail = "no detail recorded"
			}
			add("FAIL %-20s %d violation(s) over %d sampled in %d run(s): %s",
				c.Name, c.Violations, c.Samples, c.Runs, detail)
		default:
			add("ok   %-20s %d run(s), %d sampled", c.Name, c.Runs, c.Samples)
		}
	}
	if rep.Stalls > 0 {
		// Already counted as a failure via the stall_watchdog check's
		// violations; surface the bundle pointer alongside.
		if rep.LastBundle != "" {
			add("     flight recorder: %d bundle(s), last at %s", rep.Bundles, rep.LastBundle)
		}
	}
	for _, h := range rep.Heartbeats {
		state := "idle"
		if h.Active {
			state = "active"
		}
		add("ok   heartbeat %-10s %s, %d beat(s)", h.Name, state, h.Beats)
	}
	if a := rep.Accuracy; a != nil {
		add("     accuracy: precision=%.4f (tp=%d fp=%d sampled), recall=%.4f (%d/%d truth pairs probed)",
			a.Precision, a.SampledTP, a.SampledFP, a.Recall, a.RecallMatched, a.RecallSampled)
		rules := make([]string, 0, len(a.FPByRule))
		for rule := range a.FPByRule {
			rules = append(rules, rule)
		}
		sort.Strings(rules)
		for _, rule := range rules {
			add("     false positives attributed to %s: %d", rule, a.FPByRule[rule])
		}
	}
	for _, c := range rep.Calibration {
		add("     calibration %s: %d score(s), %d positive, threshold %.2f",
			c.Classifier, c.Count, c.Positives, c.Threshold)
	}
	return d
}
