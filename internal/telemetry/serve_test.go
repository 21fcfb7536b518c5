package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestServe(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dcer_serve_test_total").Add(3)
	reg.Histogram("dcer_serve_test_ns").Observe(512)
	reg.SetDebug("answer", func() any { return 42 })
	sp := reg.Tracer().Start("unit", L("k", "v"))
	sp.End()

	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	metrics := get(t, "http://"+srv.Addr+"/metrics")
	if !strings.Contains(metrics, "dcer_serve_test_total 3") {
		t.Errorf("/metrics missing counter:\n%s", metrics)
	}
	if !strings.Contains(metrics, "dcer_serve_test_ns_count 1") {
		t.Errorf("/metrics missing histogram:\n%s", metrics)
	}

	debug := get(t, "http://"+srv.Addr+"/debug/dcer")
	var doc struct {
		Metrics []SeriesSnapshot `json:"metrics"`
		Spans   []SpanRecord     `json:"spans"`
		Debug   map[string]any   `json:"debug"`
	}
	if err := json.Unmarshal([]byte(debug), &doc); err != nil {
		t.Fatalf("/debug/dcer is not JSON: %v\n%s", err, debug)
	}
	if len(doc.Metrics) == 0 || len(doc.Spans) != 1 {
		t.Errorf("/debug/dcer: %d metrics, %d spans; want >0, 1", len(doc.Metrics), len(doc.Spans))
	}
	if doc.Debug["answer"] != float64(42) {
		t.Errorf("/debug/dcer debug provider = %v, want 42", doc.Debug["answer"])
	}

	pprofOut := get(t, "http://"+srv.Addr+"/debug/pprof/cmdline")
	if len(pprofOut) == 0 {
		t.Error("/debug/pprof/cmdline returned nothing")
	}
}

// getWithType is get plus the response Content-Type, for the explicit
// media-type assertions (cmd/doctor and browsers both rely on them).
func getWithType(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// TestServeContentTypes asserts every endpoint owned by Serve declares
// its media type explicitly rather than relying on net/http sniffing.
func TestServeContentTypes(t *testing.T) {
	reg := NewRegistry()
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for path, want := range map[string]string{
		"/metrics":      "text/plain; version=0.0.4",
		"/debug/dcer":   "application/json",
		"/debug/trace":  "application/json",
		"/debug/health": "application/json",
	} {
		if _, ct := getWithType(t, "http://"+srv.Addr+path); ct != want {
			t.Errorf("%s Content-Type = %q, want %q", path, ct, want)
		}
	}
}

// healthStub is a HealthReporter serving a fixed document.
type healthStub map[string]any

func (h healthStub) HealthDoc() any { return map[string]any(h) }

// TestServeHealthEndpoint covers both sides of /debug/health: without a
// monitor it reports {"attached": false}; with a reporter attached via
// SetHealth it serves whatever document the reporter returns, and the
// /debug/dcer endpoint index advertises the route.
func TestServeHealthEndpoint(t *testing.T) {
	reg := NewRegistry()
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var unattached struct {
		Attached bool `json:"attached"`
	}
	if err := json.Unmarshal([]byte(get(t, "http://"+srv.Addr+"/debug/health")), &unattached); err != nil {
		t.Fatalf("/debug/health without a monitor is not JSON: %v", err)
	}
	if unattached.Attached {
		t.Fatal("/debug/health reports attached with no monitor")
	}

	reg.SetHealth(healthStub{"attached": true, "stalls": 7})
	var attached struct {
		Attached bool `json:"attached"`
		Stalls   int  `json:"stalls"`
	}
	if err := json.Unmarshal([]byte(get(t, "http://"+srv.Addr+"/debug/health")), &attached); err != nil {
		t.Fatalf("/debug/health with a monitor is not JSON: %v", err)
	}
	if !attached.Attached || attached.Stalls != 7 {
		t.Fatalf("/debug/health did not serve the provider's report: %+v", attached)
	}

	var index struct {
		Endpoints []string `json:"endpoints"`
	}
	if err := json.Unmarshal([]byte(get(t, "http://"+srv.Addr+"/debug/dcer")), &index); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range index.Endpoints {
		if e == "/debug/health" {
			found = true
		}
	}
	if !found {
		t.Errorf("/debug/dcer endpoint index lacks /debug/health: %v", index.Endpoints)
	}

	// Detach: the endpoint reverts to unattached.
	reg.SetHealth(nil)
	if err := json.Unmarshal([]byte(get(t, "http://"+srv.Addr+"/debug/health")), &unattached); err != nil {
		t.Fatal(err)
	}
	if unattached.Attached {
		t.Error("/debug/health still attached after SetHealth(nil)")
	}
}
