package health_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dcer/internal/health"
)

// FuzzLoadBundle writes fuzzed manifest and health-report JSON, and a
// fuzzed subset of the other bundle files, into a fresh directory, then
// loads it as cmd/doctor does: health.LoadBundle followed by
// health.Diagnose must return an error or a diagnosis, never panic. A
// loaded bundle names exactly the absent files as missing, and a
// diagnosis carries a line for each failure it counts.
func FuzzLoadBundle(f *testing.F) {
	f.Add([]byte(`{"reason":"stall","captured_ns":1,"files":["goroutines.txt","health.json"]}`),
		[]byte(`{"attached":true,"checks":[{"name":"gamma","status":"fail","runs":2,"samples":9,"violations":1,"detail":"x"}],`+
			`"heartbeats":[{"name":"drain","beats":3,"active":true}],"stalls":1,"bundles":1,"last_bundle":"b",`+
			`"accuracy":{"precision":0.5,"fp_by_rule":{"r1":2,"r0":1}},"calibration":[{"classifier":"c","count":2}]}`),
		uint8(0xf))
	f.Add([]byte(`{}`), []byte(`{"attached":false}`), uint8(0))
	f.Add([]byte(`{"files":null}`), []byte(`{"checks":[{}],"accuracy":null}`), uint8(5))
	f.Add([]byte(`not json`), []byte(`{}`), uint8(2))
	f.Add([]byte(`{"reason":1}`), []byte(`[]`), uint8(9))
	others := []string{"goroutines.txt", "trace.json", "metrics.json", "widetail.jsonl"}
	f.Fuzz(func(t *testing.T, manifest, report []byte, present uint8) {
		dir := t.TempDir()
		write := func(name string, data []byte) {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		write("manifest.json", manifest)
		write("health.json", report)
		var absent []string
		for i, name := range others {
			if present&(1<<i) != 0 {
				write(name, nil)
			} else {
				absent = append(absent, name)
			}
		}
		b, err := health.LoadBundle(dir)
		if err != nil {
			return
		}
		if !slices.Equal(b.Missing, absent) {
			t.Fatalf("bundle lists %v as missing, want %v", b.Missing, absent)
		}
		d := health.Diagnose(b.Report)
		if d.Failures > len(d.Lines) || d.Healthy() != (d.Failures == 0) {
			t.Fatalf("diagnosis counts %d failures over %d lines", d.Failures, len(d.Lines))
		}
	})
}
