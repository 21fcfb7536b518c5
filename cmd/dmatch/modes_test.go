package main

import (
	"strings"
	"testing"
)

// base returns a valid in-process parallel configuration; each case
// mutates one aspect of it.
func base() modeConfig {
	return modeConfig{
		DataDir:     "data",
		RulesFile:   "rules.mrl",
		Workers:     4,
		WorkerID:    -1,
		CrashWorker: -1,
	}
}

func TestValidateModes(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*modeConfig)
		wantErr string // substring; "" = valid
	}{
		{"sequential default", func(c *modeConfig) { c.Workers = 1 }, ""},
		{"parallel default", func(c *modeConfig) {}, ""},
		{"missing data", func(c *modeConfig) { c.DataDir = "" }, "-data and -rules"},
		{"missing rules", func(c *modeConfig) { c.RulesFile = "" }, "-data and -rules"},
		{"negative workers", func(c *modeConfig) { c.Workers = -1 }, "must not be negative"},

		{"distributed ok", func(c *modeConfig) { c.Distributed = true }, ""},
		{"distributed with listen", func(c *modeConfig) {
			c.Distributed = true
			c.Listen = "127.0.0.1:0"
		}, ""},
		{"distributed one worker", func(c *modeConfig) {
			c.Distributed = true
			c.Workers = 1
		}, "-workers >= 2"},
		{"distributed bad listen", func(c *modeConfig) {
			c.Distributed = true
			c.Listen = "no-port-here"
		}, "-listen"},
		{"distributed listen bad port", func(c *modeConfig) {
			c.Distributed = true
			c.Listen = "127.0.0.1:99999"
		}, "[0, 65535]"},
		{"distributed crash-worker ok", func(c *modeConfig) {
			c.Distributed = true
			c.CrashWorker = 3
		}, ""},
		{"distributed crash-worker out of range", func(c *modeConfig) {
			c.Distributed = true
			c.CrashWorker = 4
		}, "out of range"},

		{"worker ok", func(c *modeConfig) {
			c.Worker = true
			c.Connect = "127.0.0.1:4000"
			c.WorkerID = 0
		}, ""},
		{"worker with crash-after", func(c *modeConfig) {
			c.Worker = true
			c.Connect = "127.0.0.1:4000"
			c.WorkerID = 2
			c.CrashAfter = 1
		}, ""},
		{"worker and distributed", func(c *modeConfig) {
			c.Worker = true
			c.Distributed = true
			c.Connect = "127.0.0.1:4000"
			c.WorkerID = 0
		}, "mutually exclusive"},
		{"worker missing connect", func(c *modeConfig) {
			c.Worker = true
			c.WorkerID = 0
		}, "-worker requires -connect"},
		{"worker bad connect", func(c *modeConfig) {
			c.Worker = true
			c.Connect = "nonsense"
			c.WorkerID = 0
		}, "-connect"},
		{"worker missing id", func(c *modeConfig) {
			c.Worker = true
			c.Connect = "127.0.0.1:4000"
		}, "non-negative -worker-id"},
		{"worker with listen", func(c *modeConfig) {
			c.Worker = true
			c.Connect = "127.0.0.1:4000"
			c.WorkerID = 0
			c.Listen = ":0"
		}, "master's flag"},
		{"worker with crash-worker", func(c *modeConfig) {
			c.Worker = true
			c.Connect = "127.0.0.1:4000"
			c.WorkerID = 0
			c.CrashWorker = 1
		}, "master's flag"},
		{"worker with out", func(c *modeConfig) {
			c.Worker = true
			c.Connect = "127.0.0.1:4000"
			c.WorkerID = 0
			c.Out = "m.csv"
		}, "produces no output"},

		{"connect without worker", func(c *modeConfig) { c.Connect = "127.0.0.1:4000" }, "only applies to -worker"},
		{"worker-id without worker", func(c *modeConfig) { c.WorkerID = 0 }, "only applies to -worker"},
		{"crash-after without worker", func(c *modeConfig) { c.CrashAfter = 1 }, "only applies to -worker"},
		{"listen without distributed", func(c *modeConfig) { c.Listen = ":0" }, "-listen requires -distributed"},
		{"crash-worker without distributed", func(c *modeConfig) { c.CrashWorker = 0 }, "-crash-worker requires -distributed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := base()
			tc.mutate(&c)
			err := validateModes(c)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("want valid, got %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
