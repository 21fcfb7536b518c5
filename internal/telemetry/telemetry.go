// Package telemetry is the dependency-free observability layer of the
// engine: a metrics registry (atomic counters, gauges, lock-striped
// log-scale histograms), a lightweight span tracer with a bounded
// in-memory ring, a leveled logger, and an opt-in HTTP exposition server
// (Prometheus-style text at /metrics, trace and timeline JSON at
// /debug/dcer, net/http/pprof wired in).
//
// The hot layers (chase.Deduce, the drain batches, the DMatch BSP loop)
// hold instrument pointers resolved once at setup; a nil instrument (no
// registry attached) makes every operation a no-op, so the disabled cost
// is one branch. The paper's efficiency claims (Section VI) hinge on
// where time goes inside Deduce/IncDeduce and on BSP balance across
// workers; this package is how the repo sees both.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric or span dimension, e.g. {"worker", "3"}.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L builds a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing atomic counter. All methods are
// safe for concurrent use and no-ops on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 on nil).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 gauge. All methods are safe for concurrent
// use and no-ops on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Load returns the current value (0 on nil).
func (g *Gauge) Load() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// HistBuckets is the number of fixed log-scale histogram buckets: bucket 0
// holds the value 0 and bucket i (1 ≤ i ≤ 64) holds the values v with
// bits.Len64(v) == i, i.e. v ∈ [2^(i-1), 2^i). The scheme covers the full
// uint64 range — Observe(math.MaxUint64) lands in bucket 64 — with no
// configuration and no overflow arithmetic.
const HistBuckets = 65

// histStripes spreads concurrent Observe calls over independent mutexes
// (a power of two so stripe selection is a mask).
const histStripes = 8

// histBucket returns the bucket index of v.
func histBucket(v uint64) int { return bits.Len64(v) }

// HistBucketUpper returns the inclusive upper bound of bucket i
// (math.MaxUint64 for the last bucket).
func HistBucketUpper(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

type histStripe struct {
	mu     sync.Mutex
	counts [HistBuckets]uint64
	count  uint64
	sum    float64 // float so max-uint64 observations cannot overflow it
	max    uint64
}

// Histogram is a lock-striped histogram over fixed log-scale buckets.
// Observe is safe for concurrent use (stripes keep contention negligible
// under the parallel drain's fan-out) and a no-op on a nil receiver.
type Histogram struct {
	stripes [histStripes]histStripe
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	// Mix the value so samples spread over stripes; same-valued samples
	// sharing a stripe is fine, the stripes exist to split cache lines and
	// mutexes between concurrent writers, not to shard the distribution.
	s := &h.stripes[(v*0x9e3779b97f4a7c15)>>61&(histStripes-1)]
	s.mu.Lock()
	s.counts[histBucket(v)]++
	s.count++
	s.sum += float64(v)
	if v > s.max {
		s.max = v
	}
	s.mu.Unlock()
}

// ObserveDuration records a duration in nanoseconds (negative clamps to 0).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// HistSnapshot is a merged copy of a histogram's state.
type HistSnapshot struct {
	Counts [HistBuckets]uint64 `json:"counts"`
	Count  uint64              `json:"count"`
	Sum    float64             `json:"sum"`
	Max    uint64              `json:"max"`
}

// Snapshot merges the stripes into one coherent view. Each stripe is read
// under its lock; cross-stripe skew is bounded by in-flight Observes.
func (h *Histogram) Snapshot() HistSnapshot {
	var out HistSnapshot
	if h == nil {
		return out
	}
	for i := range h.stripes {
		s := &h.stripes[i]
		s.mu.Lock()
		for b, c := range s.counts {
			out.Counts[b] += c
		}
		out.Count += s.count
		out.Sum += s.sum
		if s.max > out.Max {
			out.Max = s.max
		}
		s.mu.Unlock()
	}
	return out
}

// Mean returns the arithmetic mean of the observed samples (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile returns the upper bound of the bucket containing the q-quantile
// (0 ≤ q ≤ 1) — an over-estimate by at most the bucket width, i.e. a
// factor of 2 on the log-scale buckets.
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum > rank {
			// Clamp to the observed max: in the top non-empty bucket the
			// bound would otherwise overshoot the largest sample.
			if up := HistBucketUpper(i); up < s.Max {
				return up
			}
			return s.Max
		}
	}
	return s.Max
}

// metricKind discriminates the instrument families of a registry.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one (name, labels) instrument instance.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	gf     func() float64
	h      *Histogram
}

// family groups the series of one metric name; a name has exactly one kind.
type family struct {
	name   string
	kind   metricKind
	series map[string]*series // keyed by canonical label string
	order  []string
}

// Registry is the process- or run-scoped metric namespace. Instrument
// getters are get-or-create and idempotent: the same (name, labels) always
// returns the same instrument, so hot layers resolve pointers once at
// setup and never touch the registry lock again. A nil *Registry returns
// nil instruments, whose operations are no-ops — the disabled mode. It is
// the engines' one observability handle: they also take its span tracer,
// wide-event logger (SetLogger) and health monitor (SetHealth).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string

	debug   map[string]func() any
	debugMu sync.Mutex
	health  HealthReporter

	tracer *Tracer
	logger atomic.Pointer[Logger]
}

// HealthReporter is the health monitor (internal/health) as SetHealth
// sees it, so telemetry never imports health. HealthDoc returns the
// /debug/health document; it is called at request time, must be safe for
// concurrent use, and its result is JSON-marshaled.
type HealthReporter interface{ HealthDoc() any }

// NewRegistry creates an empty registry with a trace ring of the default
// capacity.
func NewRegistry() *Registry {
	return &Registry{
		families: make(map[string]*family),
		debug:    make(map[string]func() any),
		tracer:   NewTracer(DefaultTraceCap),
	}
}

// Default is the process-wide registry the cmd binaries expose with
// -telemetry.
var Default = NewRegistry()

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteByte('=')
		sb.WriteString(l.Value)
	}
	return sb.String()
}

// get returns the series for (name, kind, labels), creating it on first
// use and panicking if the name is already registered with another kind
// (a programming error, caught at setup time).
func (r *Registry) get(name string, kind metricKind, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %v and %v", name, f.kind, kind))
	}
	k := labelKey(labels)
	s, ok := f.series[k]
	if !ok {
		s = &series{labels: sortedLabels(labels)}
		f.series[k] = s
		f.order = append(f.order, k)
	}
	return s
}

func sortedLabels(labels []Label) []Label {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// Counter returns the counter (name, labels), creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	s := r.get(name, kindCounter, labels)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge returns the gauge (name, labels), creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	s := r.get(name, kindGauge, labels)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// GaugeFunc registers fn as the value source of the gauge (name, labels);
// fn is called at exposition time and must be safe for concurrent use.
// Re-registering the same series replaces the function (the engines
// re-register on rebuild).
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	s := r.get(name, kindGaugeFunc, labels)
	r.mu.Lock()
	s.gf = fn
	r.mu.Unlock()
}

// Histogram returns the histogram (name, labels), creating it on first use.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	s := r.get(name, kindHistogram, labels)
	if s.h == nil {
		s.h = &Histogram{}
	}
	return s.h
}

// Tracer returns the registry's span ring (nil on a nil registry, whose
// Start returns a no-op span).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// SetLogger makes l the registry's wide-event logger: the engines attached
// to the registry emit their per-round events into it, and a health
// monitor built on the registry tees its tail. Detach with nil.
func (r *Registry) SetLogger(l *Logger) {
	if r == nil {
		return
	}
	r.logger.Store(l)
}

// Logger returns the registry's wide-event logger (nil on a nil registry
// or when none is set; a nil *Logger drops everything).
func (r *Registry) Logger() *Logger {
	if r == nil {
		return nil
	}
	return r.logger.Load()
}

// SetDebug registers a named provider surfaced in the /debug/dcer JSON
// document (e.g. the DMatch superstep timeline). fn is called at request
// time and must be safe for concurrent use; its result is JSON-marshaled.
func (r *Registry) SetDebug(name string, fn func() any) {
	if r == nil {
		return
	}
	r.debugMu.Lock()
	r.debug[name] = fn
	r.debugMu.Unlock()
}

// SetHealth attaches the health monitor served at /debug/health and
// picked up by the engines attached to the registry. The monitor
// (internal/health) attaches itself here; detach with nil.
func (r *Registry) SetHealth(h HealthReporter) {
	if r == nil {
		return
	}
	r.debugMu.Lock()
	r.health = h
	r.debugMu.Unlock()
}

// Health returns the attached health monitor, or nil when none is.
func (r *Registry) Health() HealthReporter {
	if r == nil {
		return nil
	}
	r.debugMu.Lock()
	defer r.debugMu.Unlock()
	return r.health
}

func (r *Registry) debugSnapshot() map[string]any {
	r.debugMu.Lock()
	fns := make(map[string]func() any, len(r.debug))
	for k, v := range r.debug {
		fns[k] = v
	}
	r.debugMu.Unlock()
	out := make(map[string]any, len(fns))
	for k, fn := range fns {
		out[k] = fn()
	}
	return out
}

func promLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l.Key, l.Value)
	}
	sb.WriteByte('}')
	return sb.String()
}

func promLabelsWith(labels []Label, extraKey, extraVal string) string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l.Key, l.Value)
	}
	if len(labels) > 0 {
		sb.WriteByte(',')
	}
	fmt.Fprintf(&sb, "%s=%q", extraKey, extraVal)
	sb.WriteByte('}')
	return sb.String()
}

// WriteProm writes the registry in the Prometheus text exposition format.
// Gauge functions are evaluated at write time; histogram stripes are
// merged under their locks.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	type famView struct {
		name   string
		kind   metricKind
		series []*series
	}
	fams := make([]famView, 0, len(r.order))
	for _, name := range r.order {
		f := r.families[name]
		fv := famView{name: name, kind: f.kind}
		for _, k := range f.order {
			fv.series = append(fv.series, f.series[k])
		}
		fams = append(fams, fv)
	}
	r.mu.Unlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# TYPE %s %v\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.series {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(w, "%s%s %d\n", f.name, promLabels(s.labels), s.c.Load())
			case kindGauge:
				fmt.Fprintf(w, "%s%s %g\n", f.name, promLabels(s.labels), s.g.Load())
			case kindGaugeFunc:
				fmt.Fprintf(w, "%s%s %g\n", f.name, promLabels(s.labels), s.gf())
			case kindHistogram:
				snap := s.h.Snapshot()
				var cum uint64
				for i, c := range snap.Counts {
					cum += c
					le := "+Inf"
					if i < 64 {
						le = fmt.Sprintf("%d", HistBucketUpper(i))
					}
					fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, promLabelsWith(s.labels, "le", le), cum)
				}
				fmt.Fprintf(w, "%s_sum%s %g\n", f.name, promLabels(s.labels), snap.Sum)
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, promLabels(s.labels), snap.Count); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// SeriesSnapshot is one exported series in a registry snapshot.
type SeriesSnapshot struct {
	Name      string        `json:"name"`
	Kind      string        `json:"kind"`
	Labels    []Label       `json:"labels,omitempty"`
	Value     float64       `json:"value,omitempty"`
	Histogram *HistSnapshot `json:"histogram,omitempty"`
}

// Snapshot exports every series for the /debug/dcer JSON document.
func (r *Registry) Snapshot() []SeriesSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	type pending struct {
		name string
		kind metricKind
		s    *series
	}
	var ps []pending
	for _, name := range r.order {
		f := r.families[name]
		for _, k := range f.order {
			ps = append(ps, pending{name, f.kind, f.series[k]})
		}
	}
	r.mu.Unlock()

	out := make([]SeriesSnapshot, 0, len(ps))
	for _, p := range ps {
		ss := SeriesSnapshot{Name: p.name, Kind: p.kind.String(), Labels: p.s.labels}
		switch p.kind {
		case kindCounter:
			ss.Value = float64(p.s.c.Load())
		case kindGauge:
			ss.Value = p.s.g.Load()
		case kindGaugeFunc:
			ss.Value = p.s.gf()
		case kindHistogram:
			h := p.s.h.Snapshot()
			ss.Histogram = &h
		}
		out = append(out, ss)
	}
	return out
}
