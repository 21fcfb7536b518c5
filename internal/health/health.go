// Package health is the engine's self-diagnosis layer: online invariant
// auditors, stall watchdogs with flight-recorder capture, and a live
// accuracy observatory, surfaced as a JSON report on /debug/health and
// through cmd/doctor.
//
// The engines (internal/chase, internal/dmatch) register named checks and
// heartbeats on a Monitor and drive them at quiesced boundaries — the end
// of a drain round, the top of a BSP superstep — where their state is
// stable enough to audit without locks. Everything follows the PR-3 cost
// discipline: a heartbeat is one atomic add per round, auditors touch
// sampled subsets only, and a nil Monitor (the default) costs the engines
// one branch per round.
package health

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dcer/internal/eval"
	"dcer/internal/mlpred"
	"dcer/internal/telemetry"
)

// Status is the severity of a check's latest audit result.
type Status int32

const (
	// StatusPass: the latest audit found no violations.
	StatusPass Status = iota
	// StatusWarn: suspicious but not provably wrong (e.g. an extrapolated
	// byte account off by more than tolerance, an inverted predicate order).
	StatusWarn
	// StatusFail: an invariant is provably violated on the sampled subset.
	StatusFail
)

func (s Status) String() string {
	switch s {
	case StatusPass:
		return "pass"
	case StatusWarn:
		return "warn"
	case StatusFail:
		return "fail"
	default:
		return fmt.Sprintf("status(%d)", int32(s))
	}
}

// ParseStatus is the inverse of Status.String.
func ParseStatus(s string) (Status, error) {
	switch s {
	case "pass":
		return StatusPass, nil
	case "warn":
		return StatusWarn, nil
	case "fail":
		return StatusFail, nil
	}
	return StatusFail, fmt.Errorf("health: unknown status %q", s)
}

// Check is one named invariant auditor's state: the latest status, the
// cumulative violation count, and the most recent warn/fail detail (kept
// after the status recovers, so a transient violation stays diagnosable).
// All update methods are safe for concurrent use and nil-safe.
type Check struct {
	name       string
	status     atomic.Int32
	runs       atomic.Int64
	samples    atomic.Int64
	violations atomic.Int64

	mu         sync.Mutex
	detail     string
	lastBadNs  int64
	violationC *telemetry.Counter
}

// Name returns the check's registered name.
func (c *Check) Name() string { return c.name }

// Status returns the latest status.
func (c *Check) Status() Status {
	if c == nil {
		return StatusPass
	}
	return Status(c.status.Load())
}

// Violations returns the cumulative violation count.
func (c *Check) Violations() int64 {
	if c == nil {
		return 0
	}
	return c.violations.Load()
}

// Pass records a clean audit over n sampled items.
func (c *Check) Pass(n int) {
	if c == nil {
		return
	}
	c.runs.Add(1)
	c.samples.Add(int64(n))
	c.status.Store(int32(StatusPass))
}

// Warn records a suspicious audit over n sampled items with a detail line.
func (c *Check) Warn(n int, format string, args ...any) {
	c.bad(StatusWarn, n, format, args...)
}

// Fail records a violated invariant over n sampled items with a detail
// line, incrementing the violation counters.
func (c *Check) Fail(n int, format string, args ...any) {
	c.bad(StatusFail, n, format, args...)
}

func (c *Check) bad(s Status, n int, format string, args ...any) {
	if c == nil {
		return
	}
	c.runs.Add(1)
	c.samples.Add(int64(n))
	c.status.Store(int32(s))
	if s == StatusFail {
		c.violations.Add(1)
		c.violationC.Inc()
	}
	c.mu.Lock()
	c.detail = fmt.Sprintf(format, args...)
	c.lastBadNs = time.Now().UnixNano()
	c.mu.Unlock()
}

// Detail returns the most recent warn/fail detail ("" if always clean).
func (c *Check) Detail() string {
	if c == nil {
		return ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.detail
}

func (c *Check) report() CheckReport {
	c.mu.Lock()
	detail, badNs := c.detail, c.lastBadNs
	c.mu.Unlock()
	return CheckReport{
		Name:       c.name,
		Status:     c.Status().String(),
		Runs:       c.runs.Load(),
		Samples:    c.samples.Load(),
		Violations: c.violations.Load(),
		Detail:     detail,
		LastBadNs:  badNs,
	}
}

// Options configures a Monitor.
type Options struct {
	// Registry receives the health metric series
	// (dcer_health_check_status, dcer_health_check_violations,
	// dcer_health_stalls, accuracy gauges), and the monitor attaches itself
	// to it: /debug/health serves its report and the engines attached to
	// the registry find it there (Of). It is snapshotted into
	// flight-recorder bundles, and its logger, when set, gets a bounded
	// wide-event tail attached so stall bundles carry the rounds leading
	// up to the wedge. Nil disables all of that, but the monitor still
	// works.
	Registry *telemetry.Registry
	// StallDeadline is how long a started heartbeat may go without a beat
	// before the watchdog declares a stall. 0 means DefaultStallDeadline
	// (generous, so slow CI hosts never false-positive); positive values
	// below MinStallDeadline are clamped up to it.
	StallDeadline time.Duration
	// PollInterval is the watchdog's wake cadence. 0 derives it from the
	// deadline (deadline/8, clamped to [MinPollInterval, MaxPollInterval]).
	PollInterval time.Duration
	// DiagnosisDir is where flight-recorder bundles are written
	// ("" means DefaultDiagnosisDir under the working directory).
	DiagnosisDir string
	// SampleSize bounds each auditor's per-run sample (0 means
	// DefaultSampleSize).
	SampleSize int
	// Seed makes auditor sampling reproducible.
	Seed int64
	// Truth, when set, enables the live accuracy observatory: sampled Γ
	// pairs are scored against it and precision/recall gauges exported.
	Truth *eval.Truth
	// Classifiers, when set, has score calibration enabled on every
	// registered classifier; snapshots appear in the health report.
	Classifiers *mlpred.Registry
	// WideTailCap bounds the attached wide-event tail (0 means
	// telemetry.DefaultWideTailCap).
	WideTailCap int
}

// Defaults for Options fields.
const (
	DefaultSampleSize   = 64
	DefaultDiagnosisDir = "dcer-health"
)

// Monitor owns the checks, heartbeats and the accuracy observatory of one
// process, runs the watchdog goroutine, and renders the health report.
// All methods are nil-safe; a nil *Monitor is the disabled mode.
type Monitor struct {
	opts Options
	reg  *telemetry.Registry

	mu      sync.Mutex
	checks  map[string]*Check
	order   []string
	hbs     map[string]*Heartbeat
	hborder []string
	calib   map[string]*mlpred.Calibration

	acc  *Accuracy
	tail *telemetry.WideTail

	stallC     *telemetry.Counter
	stalls     atomic.Int64
	stallCheck *Check

	bundleSeq  atomic.Int64
	lastBundle atomic.Pointer[string]

	stop chan struct{}
	done chan struct{}
}

// NewMonitor creates a monitor, attaches it to the registry's
// /debug/health provider, enables classifier calibration and the accuracy
// observatory when configured, and registers the stall watchdog's own
// check. Call Start to run the watchdog goroutine.
func NewMonitor(opts Options) *Monitor {
	if opts.SampleSize <= 0 {
		opts.SampleSize = DefaultSampleSize
	}
	if opts.DiagnosisDir == "" {
		opts.DiagnosisDir = DefaultDiagnosisDir
	}
	m := &Monitor{
		opts:   opts,
		reg:    opts.Registry,
		checks: make(map[string]*Check),
		hbs:    make(map[string]*Heartbeat),
	}
	m.stallC = m.reg.Counter("dcer_health_stalls")
	m.stallCheck = m.Check("stall_watchdog")
	if log := m.reg.Logger(); log != nil {
		m.tail = telemetry.NewWideTail(opts.WideTailCap)
		log.AttachWideTail(m.tail)
	}
	if opts.Truth != nil {
		m.acc = newAccuracy(opts.Truth, opts.SampleSize, opts.Seed, m.reg)
	}
	if opts.Classifiers != nil {
		m.calib = opts.Classifiers.EnableCalibration()
	}
	m.reg.SetHealth(m)
	return m
}

// Of returns the monitor attached to reg (NewMonitor attaches it, Stop
// detaches it), or nil — the disabled mode — when none is.
func Of(reg *telemetry.Registry) *Monitor {
	m, _ := reg.Health().(*Monitor)
	return m
}

// HealthDoc returns the /debug/health document, the monitor's Report.
func (m *Monitor) HealthDoc() any { return m.Report() }

// Check returns the named check, registering it on first use. Checks get
// a dcer_health_check_status gauge (0 pass / 1 warn / 2 fail) and a
// dcer_health_check_violations counter on the registry.
func (m *Monitor) Check(name string) *Check {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.checks[name]; ok {
		return c
	}
	c := &Check{name: name}
	c.violationC = m.reg.Counter("dcer_health_check_violations", telemetry.Label{Key: "check", Value: name})
	m.reg.GaugeFunc("dcer_health_check_status", func() float64 {
		return float64(c.status.Load())
	}, telemetry.Label{Key: "check", Value: name})
	m.checks[name] = c
	m.order = append(m.order, name)
	return c
}

// Heartbeat returns the named heartbeat, registering it on first use.
func (m *Monitor) Heartbeat(name string) *Heartbeat {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := m.hbs[name]; ok {
		return h
	}
	h := &Heartbeat{name: name}
	m.hbs[name] = h
	m.hborder = append(m.hborder, name)
	return h
}

// Accuracy returns the live accuracy observatory, or nil when no ground
// truth was configured.
func (m *Monitor) Accuracy() *Accuracy {
	if m == nil {
		return nil
	}
	return m.acc
}

// SampleSize returns the configured per-audit sample bound.
func (m *Monitor) SampleSize() int {
	if m == nil {
		return 0
	}
	return m.opts.SampleSize
}

// Seed returns the configured sampling seed.
func (m *Monitor) Seed() int64 {
	if m == nil {
		return 0
	}
	return m.opts.Seed
}

// Report renders the full health document (the /debug/health body).
func (m *Monitor) Report() Report {
	if m == nil {
		return Report{}
	}
	rep := Report{
		Attached:    true,
		GeneratedNs: time.Now().UnixNano(),
		Stalls:      m.stalls.Load(),
		Bundles:     m.bundleSeq.Load(),
	}
	if p := m.lastBundle.Load(); p != nil {
		rep.LastBundle = *p
	}
	m.mu.Lock()
	checks := make([]*Check, 0, len(m.order))
	for _, name := range m.order {
		checks = append(checks, m.checks[name])
	}
	hbs := make([]*Heartbeat, 0, len(m.hborder))
	for _, name := range m.hborder {
		hbs = append(hbs, m.hbs[name])
	}
	calib := make([]*mlpred.Calibration, 0, len(m.calib))
	for _, c := range m.calib {
		calib = append(calib, c)
	}
	m.mu.Unlock()
	for _, c := range checks {
		rep.Checks = append(rep.Checks, c.report())
	}
	sort.Slice(rep.Checks, func(i, j int) bool { return rep.Checks[i].Name < rep.Checks[j].Name })
	for _, h := range hbs {
		rep.Heartbeats = append(rep.Heartbeats, h.report())
	}
	sort.Slice(rep.Heartbeats, func(i, j int) bool { return rep.Heartbeats[i].Name < rep.Heartbeats[j].Name })
	if m.acc != nil {
		a := m.acc.report()
		rep.Accuracy = &a
	}
	for _, c := range calib {
		rep.Calibration = append(rep.Calibration, c.Snapshot())
	}
	sort.Slice(rep.Calibration, func(i, j int) bool {
		return rep.Calibration[i].Classifier < rep.Calibration[j].Classifier
	})
	return rep
}

// CheckReport is the JSON form of one check's state.
type CheckReport struct {
	Name       string `json:"name"`
	Status     string `json:"status"`
	Runs       int64  `json:"runs"`
	Samples    int64  `json:"samples"`
	Violations int64  `json:"violations"`
	Detail     string `json:"detail,omitempty"`
	LastBadNs  int64  `json:"last_bad_ns,omitempty"`
}

// HeartbeatReport is the JSON form of one heartbeat's state.
type HeartbeatReport struct {
	Name   string `json:"name"`
	Beats  int64  `json:"beats"`
	Active bool   `json:"active"`
}

// Report is the full health document served at /debug/health, embedded in
// flight-recorder bundles, and consumed by cmd/doctor.
type Report struct {
	Attached    bool                   `json:"attached"`
	GeneratedNs int64                  `json:"generated_ns"`
	Checks      []CheckReport          `json:"checks,omitempty"`
	Heartbeats  []HeartbeatReport      `json:"heartbeats,omitempty"`
	Stalls      int64                  `json:"stalls"`
	Bundles     int64                  `json:"bundles"`
	LastBundle  string                 `json:"last_bundle,omitempty"`
	Accuracy    *AccuracyReport        `json:"accuracy,omitempty"`
	Calibration []mlpred.CalibSnapshot `json:"calibration,omitempty"`
}
