package telemetry

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server is a running telemetry exposition endpoint.
type Server struct {
	// Addr is the bound listen address (resolved, so ":0" requests report
	// the ephemeral port actually obtained).
	Addr string

	ln  net.Listener
	srv *http.Server
}

// Serve starts the opt-in exposition endpoint for reg on addr
// (host:port; port 0 picks an ephemeral port) and returns immediately:
//
//	/metrics        Prometheus-style text exposition
//	/debug/dcer     JSON: metric snapshot, trace ring, debug providers,
//	                endpoint index
//	/debug/trace    Chrome trace-event JSON (Perfetto-loadable)
//	/debug/health   JSON health report from the attached monitor
//	                (SetHealth); {"attached": false} when none
//	/debug/pprof/…  the standard net/http/pprof handlers
//
// Every endpoint owned here sets an explicit Content-Type (the pprof
// handlers set their own internally). The server runs until Close.
// Metrics are read live, so scraping during a run observes the engines
// mid-flight (the per-superstep skew series of a DMatch run, the drain
// histograms of a long chase).
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		reg.WriteProm(w)
	})
	mux.HandleFunc("/debug/dcer", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		doc := struct {
			Endpoints []string         `json:"endpoints"`
			Metrics   []SeriesSnapshot `json:"metrics"`
			Spans     []SpanRecord     `json:"spans"`
			Debug     map[string]any   `json:"debug,omitempty"`
		}{
			Endpoints: []string{"/metrics", "/debug/dcer", "/debug/trace", "/debug/health", "/debug/pprof/"},
			Metrics:   reg.Snapshot(),
			Spans:     reg.Tracer().Snapshot(),
			Debug:     reg.debugSnapshot(),
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.Tracer().WriteChromeTrace(w)
	})
	mux.HandleFunc("/debug/health", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var doc any = map[string]any{"attached": false}
		if h := reg.Health(); h != nil {
			doc = h.HealthDoc()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{
		Addr: ln.Addr().String(),
		ln:   ln,
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
	}
	go s.srv.Serve(ln)
	return s, nil
}

// Close shuts the server down.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
