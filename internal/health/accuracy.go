package health

import (
	"sync"
	"sync/atomic"

	"dcer/internal/eval"
	"dcer/internal/relation"
	"dcer/internal/telemetry"
)

// Accuracy is the live accuracy observatory: when ground truth is
// available (datagen/experiment runs), the engines feed it sampled Γ
// match pairs and periodic recall probes, and it maintains running
// precision/recall estimates as gauges plus per-rule false-positive
// attribution counters. Safe for concurrent use — DMatch workers and the
// master all observe into one instance.
type Accuracy struct {
	truth *eval.Truth
	n     int
	seed  int64
	reg   *telemetry.Registry

	tp, fp        atomic.Int64
	recallSampled atomic.Int64
	recallMatched atomic.Int64
	precG, recG   *telemetry.Gauge

	mu       sync.Mutex
	fpByRule map[string]int64
	fpCtr    map[string]*telemetry.Counter
}

func newAccuracy(truth *eval.Truth, n int, seed int64, reg *telemetry.Registry) *Accuracy {
	return &Accuracy{
		truth:    truth,
		n:        n,
		seed:     seed,
		reg:      reg,
		precG:    reg.Gauge("dcer_health_precision"),
		recG:     reg.Gauge("dcer_health_recall"),
		fpByRule: make(map[string]int64),
		fpCtr:    make(map[string]*telemetry.Counter),
	}
}

// Truth returns the ground truth the observatory scores against.
func (a *Accuracy) Truth() *eval.Truth {
	if a == nil {
		return nil
	}
	return a.truth
}

// SampleSize returns the per-probe sample bound.
func (a *Accuracy) SampleSize() int {
	if a == nil {
		return 0
	}
	return a.n
}

// ObserveFresh scores the suffix [seen, n) of a growing list of derived
// matches, pair(i) giving the i-th, through ObserveMatches: a stride
// sample of at most SampleSize of them, so over successive calls each
// match is scored at most once. It returns n, the next call's seen.
func (a *Accuracy) ObserveFresh(seen, n int, pair func(i int) [2]relation.TID, attribute func(p [2]relation.TID) string) int {
	if a == nil || n <= seen {
		return max(seen, n)
	}
	step := max((n-seen+a.n-1)/a.n, 1)
	pairs := make([][2]relation.TID, 0, (n-seen+step-1)/step)
	for i := seen; i < n; i += step {
		pairs = append(pairs, pair(i))
	}
	a.ObserveMatches(pairs, attribute)
	return n
}

// ObserveMatches scores a batch of derived match pairs (the caller samples
// newly added Γ entries, so each fact is counted once) against the truth
// and updates the precision gauge. attribute maps a false-positive pair to
// the rule or classifier named in its provenance proof; nil or "" falls
// back to "unattributed".
func (a *Accuracy) ObserveMatches(pairs [][2]relation.TID, attribute func(p [2]relation.TID) string) {
	if a == nil || len(pairs) == 0 {
		return
	}
	var tp, fp int64
	for _, p := range pairs {
		if a.truth.Has(p[0], p[1]) {
			tp++
			continue
		}
		fp++
		rule := ""
		if attribute != nil {
			rule = attribute(p)
		}
		if rule == "" {
			rule = "unattributed"
		}
		a.countFP(rule)
	}
	a.tp.Add(tp)
	a.fp.Add(fp)
	t, f := a.tp.Load(), a.fp.Load()
	if t+f > 0 {
		a.precG.Set(float64(t) / float64(t+f))
	}
}

func (a *Accuracy) countFP(rule string) {
	a.mu.Lock()
	a.fpByRule[rule]++
	c, ok := a.fpCtr[rule]
	if !ok {
		c = a.reg.Counter("dcer_health_fp_attributed", telemetry.Label{Key: "rule", Value: rule})
		a.fpCtr[rule] = c
	}
	a.mu.Unlock()
	c.Inc()
}

// ObserveRecall probes the deterministic truth sample (eval.Truth.Sample
// with the monitor's seed): same reports whether the engine currently
// matches a pair, and the recall gauge becomes the matched fraction. The
// estimate is a lower bound mid-run and converges as the chase fixpoint
// approaches.
func (a *Accuracy) ObserveRecall(same func(x, y relation.TID) bool) {
	if a == nil || same == nil {
		return
	}
	sample := a.truth.Sample(a.n, a.seed)
	var matched int64
	for _, p := range sample {
		if same(p[0], p[1]) {
			matched++
		}
	}
	a.recallSampled.Store(int64(len(sample)))
	a.recallMatched.Store(matched)
	if len(sample) > 0 {
		a.recG.Set(float64(matched) / float64(len(sample)))
	}
}

// AccuracyReport is the JSON form of the observatory's state.
type AccuracyReport struct {
	TruthPairs    int              `json:"truth_pairs"`
	SampledTP     int64            `json:"sampled_tp"`
	SampledFP     int64            `json:"sampled_fp"`
	Precision     float64          `json:"precision"`
	RecallSampled int64            `json:"recall_sampled"`
	RecallMatched int64            `json:"recall_matched"`
	Recall        float64          `json:"recall"`
	FPByRule      map[string]int64 `json:"fp_by_rule,omitempty"`
}

func (a *Accuracy) report() AccuracyReport {
	rep := AccuracyReport{
		TruthPairs:    a.truth.Len(),
		SampledTP:     a.tp.Load(),
		SampledFP:     a.fp.Load(),
		RecallSampled: a.recallSampled.Load(),
		RecallMatched: a.recallMatched.Load(),
	}
	// Ratios are recomputed from the counts rather than read back from
	// the gauges, which are nil when no telemetry registry is attached.
	if t := rep.SampledTP + rep.SampledFP; t > 0 {
		rep.Precision = float64(rep.SampledTP) / float64(t)
	}
	if rep.RecallSampled > 0 {
		rep.Recall = float64(rep.RecallMatched) / float64(rep.RecallSampled)
	}
	a.mu.Lock()
	if len(a.fpByRule) > 0 {
		rep.FPByRule = make(map[string]int64, len(a.fpByRule))
		for k, v := range a.fpByRule {
			rep.FPByRule[k] = v
		}
	}
	a.mu.Unlock()
	return rep
}
