package dmatch_test

import (
	"testing"

	"dcer/internal/datagen"
	"dcer/internal/dmatch"
	"dcer/internal/eval"
	"dcer/internal/health"
	"dcer/internal/telemetry"
)

// TestDMatchHealthObservatory runs a parallel match over a TPC-H dataset
// with its planted truth threaded into the monitor and asserts the full
// observatory: the master's global union-find auditor and — where the
// engines run in the master's process — every worker-engine auditor pass,
// no stalls fire, the accuracy gauges see both matched pairs and recall
// probes, and the diagnosis is healthy.
func TestDMatchHealthObservatory(t *testing.T) {
	tpch := datagen.TPCHOptions{Scale: 0.1, Dup: 0.3, Seed: 1}
	for _, lk := range bothLinks {
		t.Run(lk.name, func(t *testing.T) {
			inProcess := lk.name == "loopback"
			checks := []string{"global_unionfind"}
			if inProcess {
				checks = append(checks, "unionfind_roots", "gamma_provenance", "depstore_bytes", "plan_order")
			}
			reg := telemetry.NewRegistry()
			mon := health.NewMonitor(health.Options{
				Registry:     reg,
				DiagnosisDir: t.TempDir(),
				Truth:        eval.NewTruth(datagen.TPCH(tpch).Truth),
				SampleSize:   1 << 20,
				Seed:         1,
			})
			mon.Start()
			defer mon.Stop()

			res, err := lk.run(t, tpchLoader(tpch),
				dmatch.Options{Workers: 2, Provenance: inProcess, Metrics: reg}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Supersteps == 0 {
				t.Fatal("run did no supersteps")
			}

			rep := mon.Report()
			if !rep.Attached {
				t.Fatal("report not attached")
			}
			byName := make(map[string]health.CheckReport, len(rep.Checks))
			for _, c := range rep.Checks {
				byName[c.Name] = c
			}
			for _, name := range checks {
				c, ok := byName[name]
				if !ok {
					t.Errorf("check %s not registered", name)
					continue
				}
				if c.Runs == 0 {
					t.Errorf("check %s never ran", name)
				}
				if c.Status != health.StatusPass.String() || c.Violations != 0 {
					t.Errorf("check %s: status %s, %d violation(s): %s", name, c.Status, c.Violations, c.Detail)
				}
			}
			if rep.Stalls != 0 {
				t.Errorf("healthy run recorded %d stall(s)", rep.Stalls)
			}

			a := rep.Accuracy
			if a == nil {
				t.Fatal("truth was threaded but the report has no accuracy section")
			}
			if a.SampledTP == 0 {
				t.Error("accuracy observatory sampled no true positives on a duplicated dataset")
			}
			if a.RecallSampled == 0 {
				t.Error("recall probe sampled no truth pairs")
			}
			if a.Precision <= 0 || a.Precision > 1 {
				t.Errorf("precision gauge = %v, want (0, 1]", a.Precision)
			}

			if d := health.Diagnose(rep); !d.Healthy() {
				t.Errorf("healthy DMatch run diagnosed unhealthy:\n%s", d)
			}
		})
	}
}
