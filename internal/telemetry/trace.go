package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
	"time"
)

// Chrome trace-event process IDs: one per pipeline component, so a
// Perfetto view of a run groups lanes by layer. TID 0 within each
// component is the control lane; worker/shard lanes are 1-based
// (tid = worker index + 1) so the control lane never collides with
// worker 0.
const (
	PIDChase  = 1 // chase engine (Deduce/IncDeduce rounds, drains, plans)
	PIDHyPart = 2 // hypercube partitioner (per-shard scan and size passes)
	PIDDMatch = 3 // BSP match loop (supersteps, routing, recovery)
	PIDMLPred = 4 // ML predicate layer (cache-miss classifier calls)
)

// PIDName maps a component PID to its Perfetto process name.
func PIDName(pid int32) string {
	switch pid {
	case PIDChase:
		return "chase"
	case PIDHyPart:
		return "hypart"
	case PIDDMatch:
		return "dmatch"
	case PIDMLPred:
		return "mlpred"
	}
	return "untraced"
}

// laneName maps (pid, tid) to a Perfetto thread name. TID 0 is each
// component's control lane; higher TIDs are 1-based worker/shard lanes.
func laneName(pid, tid int32) string {
	var prefix string
	switch pid {
	case PIDChase:
		if tid == 0 {
			return "engine"
		}
		prefix = "engine"
	case PIDHyPart:
		if tid == 0 {
			return "partition"
		}
		prefix = "shard"
	case PIDDMatch:
		if tid == 0 {
			return "master"
		}
		prefix = "worker"
	case PIDMLPred:
		if tid == 0 {
			return "ml"
		}
		prefix = "ml"
	default:
		if tid == 0 {
			return "main"
		}
		prefix = "lane"
	}
	return prefix + " " + strconv.Itoa(int(tid)-1)
}

// TraceContext carries a causal position inside one trace: the tracer,
// the trace ID, the span to parent new children under, and the
// (pid, tid) lane children record on. It is a small value type intended
// to be passed by value through the pipeline's hot layers. The zero
// TraceContext is disabled: Start returns a no-op span after a single
// nil check, so threading a context through code that runs with tracing
// off costs one branch.
type TraceContext struct {
	tr     *Tracer
	trace  uint64
	parent uint64
	pid    int32
	tid    int32
}

// NewTrace allocates a fresh trace rooted at lane (pid, tid). A nil
// tracer returns the zero (disabled) context.
func (t *Tracer) NewTrace(pid, tid int32) TraceContext {
	if t == nil {
		return TraceContext{}
	}
	return TraceContext{tr: t, trace: t.ids.Add(1), pid: pid, tid: tid}
}

// Enabled reports whether spans started from this context are recorded.
func (tc TraceContext) Enabled() bool { return tc.tr != nil }

// TID returns the context's current thread-lane id.
func (tc TraceContext) TID() int32 { return tc.tid }

// Lane returns the same causal position on a different (pid, tid) lane.
func (tc TraceContext) Lane(pid, tid int32) TraceContext {
	tc.pid, tc.tid = pid, tid
	return tc
}

// Start begins a child span of the context's current parent, on the
// context's lane. The labels are copied at record time, so callers may
// reuse scratch slices.
func (tc TraceContext) Start(name string, labels ...Label) Span {
	if tc.tr == nil {
		return Span{}
	}
	s := tc.tr.Start(name, labels...)
	s.trace = tc.trace
	s.id = tc.tr.ids.Add(1)
	s.parent = tc.parent
	s.pid = tc.pid
	s.tid = tc.tid
	return s
}

// Record logs a completed child span with an explicit start time: the
// caller timed the region itself and decided afterwards that it is worth
// recording (typically against a duration floor). Unlike Start/End this
// pays the label-slice allocation only for spans that actually record,
// which matters for per-rule spans firing thousands of times per run.
func (tc TraceContext) Record(name string, start time.Time, labels ...Label) {
	if tc.tr == nil {
		return
	}
	s := tc.Start(name, labels...)
	s.start = start
	s.End()
}

// Event records an instant (zero-duration) child span — used for
// point-in-time annotations such as plan re-sorts that carry their
// payload in labels.
func (tc TraceContext) Event(name string, labels ...Label) {
	if tc.tr == nil {
		return
	}
	tc.Start(name, labels...).End()
}

// Context returns a TraceContext for starting children of s, on s's
// lane. The zero span yields the disabled context.
func (s Span) Context() TraceContext {
	if s.tr == nil {
		return TraceContext{}
	}
	return TraceContext{tr: s.tr, trace: s.trace, parent: s.id, pid: s.pid, tid: s.tid}
}

// WriteChromeTrace writes the retained spans as Chrome trace-event JSON
// ({"traceEvents":[…]}), loadable in Perfetto or chrome://tracing. Every
// span becomes a complete event (ph "X", timestamps in microseconds)
// whose pid/tid map to the component/worker lanes the span was recorded
// on; metadata events name each process and thread. Span labels and the
// causal IDs (trace/span/parent) travel in args.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Snapshot()
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[")
	first := true
	emit := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			return
		}
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.Write(b)
	}

	type chromeEvent struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int32          `json:"pid"`
		TID  int32          `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}

	// Metadata first: process and thread names per distinct lane.
	type lane struct{ pid, tid int32 }
	seenPID := map[int32]bool{}
	seenLane := map[lane]bool{}
	for _, sp := range spans {
		if !seenPID[sp.PID] {
			seenPID[sp.PID] = true
			emit(chromeEvent{Name: "process_name", Ph: "M", PID: sp.PID,
				Args: map[string]any{"name": PIDName(sp.PID)}})
		}
		l := lane{sp.PID, sp.TID}
		if !seenLane[l] {
			seenLane[l] = true
			emit(chromeEvent{Name: "thread_name", Ph: "M", PID: sp.PID, TID: sp.TID,
				Args: map[string]any{"name": laneName(sp.PID, sp.TID)}})
		}
	}

	for _, sp := range spans {
		args := make(map[string]any, len(sp.Labels)+3)
		if sp.TraceID != 0 {
			args["trace_id"] = sp.TraceID
			args["span_id"] = sp.SpanID
			if sp.ParentID != 0 {
				args["parent_id"] = sp.ParentID
			}
		}
		for _, lb := range sp.Labels {
			args[lb.Key] = lb.Value
		}
		emit(chromeEvent{
			Name: sp.Name,
			Ph:   "X",
			Ts:   float64(sp.StartUnixN) / 1e3,
			Dur:  float64(sp.DurationNs) / 1e3,
			PID:  sp.PID,
			TID:  sp.TID,
			Args: args,
		})
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}
