package chase

import (
	"sync/atomic"

	"dcer/internal/health"
	"dcer/internal/mlpred"
	"dcer/internal/telemetry"
)

// engineCounters is the engine's live work account. The fields are
// atomics so Stats() — and the registry gauge views scraped over HTTP
// mid-run — read a torn-free snapshot while the drain's worker
// goroutines merge results; the hot enumeration loops still accumulate
// into per-context plain counters and only land here at merge points.
type engineCounters struct {
	valuations   atomic.Int64
	extensions   atomic.Int64
	matches      atomic.Int64
	mlValidated  atomic.Int64
	depsRecorded atomic.Int64
	depsFired    atomic.Int64
	depsVisited  atomic.Int64
	rounds       atomic.Int64

	// Compiled-plan work account (plan.go): predicate evaluations and
	// candidate batches land here at the context merge points; reorders
	// are counted directly by maybeResortPlans on the engine goroutine.
	planPreds    atomic.Int64
	planBatches  atomic.Int64
	planReorders atomic.Int64

	// ML work account: warm feature-store probes and feature-scored
	// classifier invocations, counted per context on the prediction path
	// and landed here at the context merge points.
	featHits atomic.Int64
	mlCalls  atomic.Int64

	// Memory-account mirrors, refreshed by rebudget on the engine
	// goroutine once per drain round so the /metrics scrape goroutine
	// never walks the live maps.
	memDataset atomic.Int64
	memGamma   atomic.Int64
	memDeps    atomic.Int64
	memEvicted atomic.Int64
}

// cacheSnapshots returns the engine's combined ML accounts, summing the
// rule-private stores of the noMQO configuration into the shared ones and
// the engine's own prediction-path counts into both: a feature-scored
// classifier call is a pair miss ("the classifier ran" — there is no
// answer memo on that path), a warm bundle probe a feature hit. Safe for
// concurrent use.
func (e *Engine) cacheSnapshots() (pair, feat mlpred.CacheSnapshot) {
	add := func(dst *mlpred.CacheSnapshot, s mlpred.CacheSnapshot) {
		dst.Hits += s.Hits
		dst.Misses += s.Misses
		dst.Entries += s.Entries
	}
	pair = e.pairCache.Snapshot()
	feat = e.feats.Snapshot()
	for _, br := range e.rules {
		if br.cache != nil {
			add(&pair, br.cache.Snapshot())
			add(&feat, br.feats.Snapshot())
		}
	}
	pair.Misses += e.cnt.mlCalls.Load()
	feat.Hits += e.cnt.featHits.Load()
	return pair, feat
}

// initMetrics attaches the engine to a registry: it roots the engine's
// trace on the registry's tracer, takes the registry's logger and health
// monitor, and registers the gauge views that make /metrics and
// Engine.Stats two faces of the same counters.
func (e *Engine) initMetrics(reg *telemetry.Registry) {
	labels := e.opts.MetricsLabels
	e.tel = reg
	e.tc = reg.Tracer().NewTrace(telemetry.PIDChase, 0)
	e.log = reg.Logger()
	e.initHealth(health.Of(reg))

	views := []struct {
		name string
		fn   func() float64
	}{
		{"dcer_chase_valuations", func() float64 { return float64(e.cnt.valuations.Load()) }},
		{"dcer_chase_extensions", func() float64 { return float64(e.cnt.extensions.Load()) }},
		{"dcer_chase_matches", func() float64 { return float64(e.cnt.matches.Load()) }},
		{"dcer_chase_ml_validated", func() float64 { return float64(e.cnt.mlValidated.Load()) }},
		{"dcer_chase_deps_recorded", func() float64 { return float64(e.cnt.depsRecorded.Load()) }},
		{"dcer_chase_deps_fired", func() float64 { return float64(e.cnt.depsFired.Load()) }},
		{"dcer_plan_preds_evaluated", func() float64 { return float64(e.cnt.planPreds.Load()) }},
		{"dcer_plan_batches", func() float64 { return float64(e.cnt.planBatches.Load()) }},
		{"dcer_plan_reorders", func() float64 { return float64(e.cnt.planReorders.Load()) }},
		{"dcer_chase_mlcache_entries", func() float64 { p, _ := e.cacheSnapshots(); return float64(p.Entries) }},
		{"dcer_mem_dataset_bytes", func() float64 { return float64(e.cnt.memDataset.Load()) }},
		{"dcer_mem_gamma_bytes", func() float64 { return float64(e.cnt.memGamma.Load()) }},
		{"dcer_mem_deps_bytes", func() float64 { return float64(e.cnt.memDeps.Load()) }},
		{"dcer_mem_total_bytes", func() float64 {
			return float64(e.cnt.memDataset.Load() + e.cnt.memGamma.Load() + e.cnt.memDeps.Load())
		}},
		{"dcer_mem_budget_bytes", func() float64 { return float64(e.opts.MemBudgetBytes) }},
		{"dcer_mem_deps_evicted", func() float64 { return float64(e.cnt.memEvicted.Load()) }},
	}
	for _, v := range views {
		reg.GaugeFunc(v.name, v.fn, labels...)
	}

	// The provider names are suffixed with the label values so the
	// parallel engine's per-worker engines (labelled worker=i) publish
	// side by side instead of replacing each other — or, for provenance,
	// the parallel engine's own view over all worker logs.
	suffix := ""
	for _, l := range labels {
		suffix += "_" + l.Value
	}
	reg.SetDebug("plans"+suffix, func() any { return e.PlanReport() })

	if p := e.opts.Provenance; p != nil {
		p.AttachMetrics(reg, labels...)
		reg.SetDebug("provenance"+suffix, func() any { return p.Summarize() })
	}
}

// ruleHist resolves a rule's enumeration histogram, once per bound rule at
// setup.
func (e *Engine) ruleHist(ruleName string) *telemetry.Histogram {
	lbls := append(append([]telemetry.Label(nil), e.opts.MetricsLabels...), telemetry.L("rule", ruleName))
	return e.tel.Histogram("dcer_chase_rule_enumerate_ns", lbls...)
}
