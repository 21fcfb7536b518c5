package chase

// Causal tracing and wide events of the engine. Spans follow the call
// tree: Deduce/IncDeduce roots parent the per-task enumerate/merge spans
// of the seed pass and the per-round drain spans, which in turn parent
// the drain batches and the cache-miss classifier calls of the ML
// predicate layer. Everything is gated on
// TraceContext.Enabled() (one branch per site when tracing is off) and
// records into the bounded ring of the registry's tracer, so a live run
// can be exported as a Perfetto-loadable Chrome trace at any time
// (/debug/trace, cmd -traceout).

import (
	"time"

	"dcer/internal/telemetry"
)

// mlTraceFloor is the duration floor under which a cache-miss classifier
// call is not recorded as a span: sub-floor predictions are plentiful
// and individually uninteresting, and the ring is bounded.
const mlTraceFloor = 200 * time.Microsecond

// fineSpanFloor is the duration floor for the per-rule and per-batch
// spans inside a drain (enumerate, merge, drain.batch). A scale-2 Deduce
// runs thousands of drain rounds whose per-rule enumerations mostly take
// a few tens of microseconds; recording each would roughly double the
// instrumented-run overhead and bury the trace in dust. Round and root
// spans always record, so the causal skeleton stays complete.
const fineSpanFloor = 100 * time.Microsecond

// startRoot opens a top-level engine span (Deduce / IncDeduce) and
// re-parents the in-flight context under it so the pass's child spans
// (enumerations, drain rounds) attach to this call. Tracing off, both are
// the disabled zero values.
func (e *Engine) startRoot(name string) telemetry.Span {
	sp := e.tc.Start(name, e.opts.MetricsLabels...)
	e.curTC = sp.Context()
	return sp
}

// endRoot closes a top-level engine span and drops the in-flight
// context.
func (e *Engine) endRoot(sp telemetry.Span) {
	e.curTC = telemetry.TraceContext{}
	sp.End()
}

// SetTraceContext re-parents the engine's future Deduce/IncDeduce roots
// under tc — the parallel engine points each worker's engine at the
// current superstep span, on the worker's lane. Only call while the
// engine is quiescent (no deduction in flight).
func (e *Engine) SetTraceContext(tc telemetry.TraceContext) { e.tc = tc }

// wideRound emits the per-drain-round wide event: one JSON line carrying
// the round's progress and the knob state of the engine, so a long
// run is post-hoc debuggable from a grep. Callers gate on the logger's
// level before computing any of the arguments.
func (e *Engine) wideRound(round, events int) {
	fields := make([]telemetry.F, 0, 6+len(e.opts.MetricsLabels))
	for _, l := range e.opts.MetricsLabels {
		fields = append(fields, telemetry.F{K: l.Key, V: l.Value})
	}
	fields = append(fields,
		telemetry.F{K: "round", V: round},
		telemetry.F{K: "events", V: events},
		telemetry.F{K: "matches", V: e.cnt.matches.Load()},
		telemetry.F{K: "ml_validated", V: e.cnt.mlValidated.Load()},
		telemetry.F{K: "mem_dataset_bytes", V: e.cnt.memDataset.Load()},
		telemetry.F{K: "mem_gamma_bytes", V: e.cnt.memGamma.Load()},
	)
	e.log.Wide(telemetry.LogDebug, "deduce_round", fields...)
}
