package dmatch_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"dcer/internal/dmatch"
	"dcer/internal/health"
	"dcer/internal/mlpred"
	"dcer/internal/provenance"
	"dcer/internal/telemetry"
)

// TestLiveTelemetryEndpoints drives the whole opt-in observability path
// end to end — registry → engines → HTTP → proof → trace → health: a
// two-worker DMatch run over the paper example with justification capture
// on and a health monitor attached to the registry it is handed, served by
// telemetry.Serve on an ephemeral port and scraped over real HTTP.
func TestLiveTelemetryEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, err := telemetry.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mon := health.NewMonitor(health.Options{Registry: reg, DiagnosisDir: t.TempDir(), Seed: 1})
	mon.Start()
	defer mon.Stop()

	d, rules, err := paperLoader()
	if err != nil {
		t.Fatal(err)
	}
	res, err := dmatch.Run(d, rules, mlpred.DefaultRegistry(), dmatch.Options{Workers: 2, Metrics: reg, Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("instrumented run deduced no matches")
	}
	// The stitched cross-worker log must prove a deduced match without any
	// fallback chase.
	m := res.Matches[0]
	if proof, err := res.Proof(m.A, m.B); err != nil || len(proof) == 0 {
		t.Errorf("deduced match (%d, %d): proof of %d steps, %v", m.A, m.B, len(proof), err)
	}

	metrics := scrape(t, srv.Addr, "/metrics")
	for _, series := range []string{
		"dcer_dmatch_step_skew",
		"dcer_dmatch_step_makespan_ns",
		"dcer_dmatch_messages_routed",
		"dcer_dmatch_worker_busy_ns",
		"dcer_hypart_fragment_size",
		`dcer_chase_valuations{worker="0"}`,
		"dcer_chase_rule_enumerate_ns",
		"dcer_provenance_entries",
		"dcer_provenance_dropped",
		"dcer_provenance_record_ns",
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("/metrics lacks %s", series)
		}
	}

	var doc struct {
		Endpoints []string                   `json:"endpoints"`
		Metrics   []json.RawMessage          `json:"metrics"`
		Debug     map[string]json.RawMessage `json:"debug"`
	}
	if err := json.Unmarshal([]byte(scrape(t, srv.Addr, "/debug/dcer")), &doc); err != nil {
		t.Fatalf("/debug/dcer is not JSON: %v", err)
	}
	if len(doc.Metrics) == 0 {
		t.Error("/debug/dcer has no metric snapshot")
	}
	if !strings.Contains(strings.Join(doc.Endpoints, " "), "/debug/health") {
		t.Errorf("/debug/dcer endpoint index lacks /debug/health: %v", doc.Endpoints)
	}
	if tl, err := dmatch.ParseTimeline(doc.Debug["dmatch_timeline"]); err != nil {
		t.Errorf("dmatch_timeline provider: %v", err)
	} else if len(tl.Steps) != res.Supersteps {
		t.Errorf("timeline has %d steps, the run reports %d supersteps", len(tl.Steps), res.Supersteps)
	}
	var sums []provenance.Summary
	if err := json.Unmarshal(doc.Debug["provenance"], &sums); err != nil || len(sums) == 0 {
		t.Errorf("provenance provider: %d per-worker summaries, %v", len(sums), err)
	}
	entries := 0
	for _, s := range sums {
		entries += s.Entries
	}
	if entries == 0 {
		t.Error("provenance provider reported zero recorded derivations")
	}

	// The causal trace: loadable trace-event JSON whose complete events
	// span at least two (pid, tid) lanes — master plus a worker — and whose
	// parent IDs resolve.
	var trace struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			PID  int32          `json:"pid"`
			TID  int32          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(scrape(t, srv.Addr, "/debug/trace")), &trace); err != nil {
		t.Fatalf("/debug/trace is not JSON: %v", err)
	}
	lanes := map[[2]int32]bool{}
	spanIDs := map[float64]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" {
			lanes[[2]int32{ev.PID, ev.TID}] = true
			if id, ok := ev.Args["span_id"].(float64); ok {
				spanIDs[id] = true
			}
		}
	}
	if len(lanes) < 2 {
		t.Errorf("/debug/trace shows %d lane(s), want >= 2 (master + worker)", len(lanes))
	}
	for _, ev := range trace.TraceEvents {
		if parent, ok := ev.Args["parent_id"].(float64); ev.Ph == "X" && ok && !spanIDs[parent] {
			t.Errorf("/debug/trace: span on lane (%d, %d) has parent %v outside the trace", ev.PID, ev.TID, parent)
		}
	}

	// The health observatory: every auditor ran during the job (the drain
	// audits at its fixpoint, the master once per superstep) and passed,
	// and the stall watchdog stayed quiet.
	var rep health.Report
	if err := json.Unmarshal([]byte(scrape(t, srv.Addr, "/debug/health")), &rep); err != nil {
		t.Fatalf("/debug/health is not JSON: %v", err)
	}
	if !rep.Attached {
		t.Fatal("/debug/health reports no attached monitor")
	}
	checks := map[string]health.CheckReport{}
	for _, c := range rep.Checks {
		checks[c.Name] = c
	}
	for _, name := range []string{"unionfind_roots", "gamma_provenance", "depstore_bytes", "plan_order", "global_unionfind", "stall_watchdog"} {
		c, ok := checks[name]
		switch {
		case !ok:
			t.Errorf("/debug/health lacks check %q", name)
		case c.Status != health.StatusPass.String() || c.Violations > 0:
			t.Errorf("check %q: status %s, %d violation(s): %s", name, c.Status, c.Violations, c.Detail)
		case name != "stall_watchdog" && c.Runs == 0:
			t.Errorf("check %q never ran during the job", name)
		}
	}
	if rep.Stalls != 0 {
		t.Errorf("stall watchdog recorded %d stall(s) during a healthy run", rep.Stalls)
	}
	if diag := health.Diagnose(rep); !diag.Healthy() {
		t.Errorf("healthy run diagnosed unhealthy:\n%s", diag)
	}
}

// scrape GETs one endpoint of a live server.
func scrape(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s, %v", path, resp.Status, err)
	}
	return string(body)
}
