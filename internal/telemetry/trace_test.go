package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSpanLabelCopy is the regression test for the label-aliasing bug:
// End must copy the label slice, so a caller reusing its scratch slice
// after End cannot corrupt the ring.
func TestSpanLabelCopy(t *testing.T) {
	tr := NewTracer(8)
	scratch := []Label{L("rule", "r1"), L("round", "0")}
	sp := tr.Start("unit", scratch...)
	sp.End()

	// Mutate the caller's slice after End, as a loop reusing one
	// scratch buffer would.
	scratch[0] = L("rule", "CLOBBERED")
	scratch[1] = L("round", "99")

	recs := tr.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("got %d spans, want 1", len(recs))
	}
	got := recs[0].Labels
	if len(got) != 2 || got[0].Value != "r1" || got[1].Value != "0" {
		t.Errorf("ring labels aliased caller memory: %v", got)
	}
}

// TestTraceContextCausality checks the ID plumbing: children started
// from a span's Context carry the parent's span ID and the trace ID,
// and Lane moves only the (pid, tid) coordinates.
func TestTraceContextCausality(t *testing.T) {
	tr := NewTracer(16)
	tc := tr.NewTrace(PIDDMatch, 0)
	if !tc.Enabled() {
		t.Fatal("NewTrace on a live tracer must be enabled")
	}

	root := tc.Start("dmatch.Run")
	rctx := root.Context()
	child := rctx.Lane(PIDDMatch, 3).Start("chase.Deduce")
	rctx.Event("dmatch.recovery", L("step", "1"))
	child.End()
	root.End()

	recs := tr.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("got %d spans, want 3", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
		if r.TraceID == 0 || r.SpanID == 0 {
			t.Errorf("%s: zero trace/span ID: %+v", r.Name, r)
		}
	}
	rootRec, childRec, evRec := byName["dmatch.Run"], byName["chase.Deduce"], byName["dmatch.recovery"]
	if rootRec.ParentID != 0 {
		t.Errorf("root has parent %d, want 0", rootRec.ParentID)
	}
	for _, r := range []SpanRecord{childRec, evRec} {
		if r.TraceID != rootRec.TraceID {
			t.Errorf("%s: trace %d, want %d", r.Name, r.TraceID, rootRec.TraceID)
		}
		if r.ParentID != rootRec.SpanID {
			t.Errorf("%s: parent %d, want root span %d", r.Name, r.ParentID, rootRec.SpanID)
		}
	}
	if childRec.PID != PIDDMatch || childRec.TID != 3 {
		t.Errorf("Lane did not move the child: pid=%d tid=%d", childRec.PID, childRec.TID)
	}
	if evRec.TID != 0 {
		t.Errorf("event inherited the wrong lane: tid=%d", evRec.TID)
	}
}

// TestDisabledTraceContextIsNoOp checks that the zero context — what hot
// code sees when tracing is off — records nothing and never panics.
func TestDisabledTraceContextIsNoOp(t *testing.T) {
	var tc TraceContext
	if tc.Enabled() {
		t.Fatal("zero TraceContext must be disabled")
	}
	sp := tc.Start("ghost", L("k", "v"))
	sp.End()
	tc.Event("ghost-event")
	if sub := sp.Context(); sub.Enabled() {
		t.Error("child context of a no-op span must be disabled")
	}
	var nilTr *Tracer
	if nilTr.NewTrace(PIDChase, 0).Enabled() {
		t.Error("NewTrace on a nil tracer must be disabled")
	}
}

// chromeDoc mirrors the trace-event JSON envelope for validation.
type chromeDoc struct {
	TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
}

// validateChromeTrace parses body as trace-event JSON and checks every
// event carries the required keys. It returns the parsed doc.
func validateChromeTrace(t *testing.T, body []byte) chromeDoc {
	t.Helper()
	var doc chromeDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace output is not JSON: %v\n%s", err, body)
	}
	for i, ev := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Errorf("event %d missing %q: %v", i, key, ev)
			}
		}
		var ph string
		json.Unmarshal(ev["ph"], &ph)
		if ph != "X" && ph != "M" {
			t.Errorf("event %d: unexpected phase %q", i, ph)
		}
	}
	return doc
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer(16)
	tc := tr.NewTrace(PIDChase, 0)
	root := tc.Start("chase.Deduce", L("workload", "test"))
	child := root.Context().Lane(PIDHyPart, 1).Start("hypart.shard.scan")
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	doc := validateChromeTrace(t, buf.Bytes())

	var xEvents, mEvents int
	sawLabel := false
	for _, ev := range doc.TraceEvents {
		var ph string
		json.Unmarshal(ev["ph"], &ph)
		switch ph {
		case "X":
			xEvents++
			if strings.Contains(string(ev["args"]), `"workload":"test"`) {
				sawLabel = true
			}
		case "M":
			mEvents++
		}
	}
	if xEvents != 2 {
		t.Errorf("got %d complete events, want 2", xEvents)
	}
	// 2 distinct pids and 2 distinct lanes → 4 metadata events.
	if mEvents != 4 {
		t.Errorf("got %d metadata events, want 4", mEvents)
	}
	if !sawLabel {
		t.Error("span label did not reach the args of its event")
	}
}

// TestServeDebugTrace checks the /debug/trace endpoint emits valid
// trace-event JSON for the registry's span ring.
func TestServeDebugTrace(t *testing.T) {
	reg := NewRegistry()
	tc := reg.Tracer().NewTrace(PIDDMatch, 0)
	root := tc.Start("dmatch.Run")
	w1 := root.Context().Lane(PIDDMatch, 1).Start("chase.Deduce")
	w1.End()
	w2 := root.Context().Lane(PIDDMatch, 2).Start("chase.Deduce")
	w2.End()
	root.End()

	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	body := get(t, "http://"+srv.Addr+"/debug/trace")
	doc := validateChromeTrace(t, []byte(body))
	lanes := map[[2]int64]bool{}
	for _, ev := range doc.TraceEvents {
		var ph string
		json.Unmarshal(ev["ph"], &ph)
		if ph != "X" {
			continue
		}
		var pid, tid int64
		json.Unmarshal(ev["pid"], &pid)
		json.Unmarshal(ev["tid"], &tid)
		lanes[[2]int64{pid, tid}] = true
	}
	if len(lanes) < 3 {
		t.Errorf("got %d distinct lanes, want >= 3 (master + 2 workers)", len(lanes))
	}
}

func TestLoggerWide(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, "testsrc", LogDebug)
	l.Wide(LogDebug, "deduce_round",
		F{"round", 3},
		F{"fired", 17},
		F{"plan_on", true},
		F{"note", `quote"and\slash`},
	)

	line := buf.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("wide event must be exactly one line: %q", line)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(line), &doc); err != nil {
		t.Fatalf("wide event is not JSON: %v\n%s", err, line)
	}
	if doc["event"] != "deduce_round" || doc["src"] != "testsrc" || doc["level"] != "DEBUG" {
		t.Errorf("envelope fields wrong: %v", doc)
	}
	if doc["round"] != float64(3) || doc["fired"] != float64(17) || doc["plan_on"] != true {
		t.Errorf("payload fields wrong: %v", doc)
	}
	if doc["note"] != `quote"and\slash` {
		t.Errorf("string escaping broken: %q", doc["note"])
	}
	// Field order must survive: the keys appear as given, after the
	// envelope, so grepping a run's log stays column-stable.
	if i, j := strings.Index(line, `"round"`), strings.Index(line, `"fired"`); i < 0 || j < 0 || i > j {
		t.Errorf("field order not preserved: %s", line)
	}

	// Below-threshold wide events must be dropped without output, and a
	// nil logger must not panic.
	buf.Reset()
	l.SetLevel(LogInfo)
	l.Wide(LogDebug, "dropped", F{"k", 1})
	if buf.Len() != 0 {
		t.Errorf("wide event below level leaked: %q", buf.String())
	}
	var nilL *Logger
	nilL.Wide(LogError, "nil", F{"k", 1})
}
