package main

import (
	"bytes"
	"net"
	"strings"
	"testing"

	"dcer/internal/datagen"
	"dcer/internal/dmatch"
	"dcer/internal/health"
	"dcer/internal/mlpred"
	"dcer/internal/telemetry"
)

// TestDoctorScrapesLiveEndpoint points doctor at live telemetry endpoints:
// one serving the registry a monitored DMatch run was handed reads
// healthy, one serving a registry with no monitor reads unhealthy with
// "no health monitor attached", and a closed port is an I/O error.
func TestDoctorScrapesLiveEndpoint(t *testing.T) {
	doctor := func(addr string) (int, string) {
		var out, errOut bytes.Buffer
		code := run([]string{"-addr", addr, "-timeout", "5s"}, &out, &errOut)
		return code, out.String() + errOut.String()
	}
	serve := func(reg *telemetry.Registry) string {
		srv, err := telemetry.Serve("127.0.0.1:0", reg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv.Addr
	}

	reg := telemetry.NewRegistry()
	mon := health.NewMonitor(health.Options{Registry: reg, DiagnosisDir: t.TempDir(), Seed: 1})
	mon.Start()
	defer mon.Stop()
	d, _ := datagen.PaperExample()
	rules, err := datagen.PaperRules(d.DB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dmatch.Run(d, rules, mlpred.DefaultRegistry(), dmatch.Options{Workers: 2, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	if code, out := doctor(serve(reg)); code != 0 || !strings.Contains(out, "healthy") || !strings.Contains(out, "global_unionfind") {
		t.Errorf("monitored run: exit %d, want 0 and a healthy reading:\n%s", code, out)
	}

	if code, out := doctor(serve(telemetry.NewRegistry())); code != 1 || !strings.Contains(out, "no health monitor attached") {
		t.Errorf("no monitor: exit %d, want 1 and \"no health monitor attached\":\n%s", code, out)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := ln.Addr().String()
	ln.Close()
	if code, out := doctor(closed); code != 2 || !strings.Contains(out, "scraping "+closed) {
		t.Errorf("closed port: exit %d, want 2 and a scrape error:\n%s", code, out)
	}
}
