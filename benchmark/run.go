package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// config is one run of one workload.
type config struct {
	W       workload
	Seed    int64   // row order of the generated relations
	Seconds float64 // gated repetitions start until this much time has passed
	Trace   bool    // add the traced repetition and the per-layer metrics
	WorkDir string  // inputs and outputs live in a fresh directory below
	Exe     string  // binary re-executed as the tpch-dist workers
}

// metricValue is one reported metric.
type metricValue struct {
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// report is the outcome of one workload run.
type report struct {
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	ContentSeed int64    `json:"content_seed"`
	Scale       float64  `json:"scale"`
	Tuples      int      `json:"tuples"`
	Ops         int      `json:"ops"`
	Failed      int      `json:"failed"`
	Errors      []string `json:"errors,omitempty"`
	// Digest is the reference Γ digest every repetition was held to.
	Digest   string                 `json:"gamma_digest"`
	EndToEnd map[string]metricValue `json:"end_to_end"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	// Samples are the per-repetition values behind the medians.
	Samples map[string][]float64 `json:"samples"`
	Spans   []span               `json:"-"`
}

func (r *report) correct() bool { return r.Failed == 0 && r.Ops > 0 }

// runWorkload sets up once, starts gated repetitions until cfg.Seconds
// have passed (one at least), and, when asked, adds one traced repetition.
// It removes its directory and reaps its worker processes on every path.
// The error return is for a run that could not be measured at all; failed
// operations, a timeout among them, are counted in the report instead.
func runWorkload(cfg config) (*report, error) {
	dir, err := os.MkdirTemp(cfg.WorkDir, cfg.W.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rep := &report{
		Workload: cfg.W.Name, Seed: cfg.Seed, ContentSeed: contentSeed, Scale: cfg.W.Scale,
		Samples: make(map[string][]float64),
	}

	// Set-up: generate, write the CSV directory and rule file, one
	// untimed warm-up repetition.
	t0 := time.Now()
	in, err := generate(cfg.W, cfg.Seed, dir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	run := &runner{w: cfg.W, in: in, exe: cfg.Exe}
	warm, err := run.repetition(nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up repetition: %w", err)
	}
	setup := time.Since(t0).Seconds()
	rep.Tuples = in.tuples

	// The reference every repetition is held to: the single engine's Γ,
	// which for the one-engine workloads is what the warm-up produced.
	ref := warm
	if cfg.W.Mode != modeMatch {
		single := &runner{w: cfg.W, in: in}
		single.w.Mode = modeMatch
		if ref, err = single.repetition(nil); err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		if ref.Digest != warm.Digest {
			return nil, fmt.Errorf("warm-up Γ digest %s differs from the single engine's %s", warm.Digest, ref.Digest)
		}
	}
	rep.Digest = ref.Digest

	// check holds one repetition to the reference digest and to the
	// warm-up's guarded counts.
	check := func(res repResult, err error) error {
		rep.Ops++
		if err == nil && res.Digest != ref.Digest {
			err = fmt.Errorf("Γ digest %s differs from the reference %s", res.Digest, ref.Digest)
		}
		if err == nil {
			if d := res.Guard.diff(warm.Guard); d != "" {
				err = fmt.Errorf("count changed between repetitions: %s", d)
			}
		}
		if err != nil {
			rep.Failed++
			rep.Errors = append(rep.Errors, fmt.Sprintf("repetition %d: %v", rep.Ops, err))
			fmt.Fprintf(os.Stderr, "%s: repetition %d failed: %v\n", cfg.W.Name, rep.Ops, err)
		}
		return err
	}

	// Hand the set-up's freed heap back, so that the first repetition's
	// resident set does not start from the generator's.
	debug.FreeOSMemory()
	timedOut := false
	for start := time.Now(); ; {
		runtime.GC()
		res, err := run.repetition(nil)
		if check(res, err) == nil {
			rep.Samples["e2e_s"] = append(rep.Samples["e2e_s"], res.E2E)
			rep.Samples["resolve_s"] = append(rep.Samples["resolve_s"], res.Resolve)
			rep.Samples["cpu_s"] = append(rep.Samples["cpu_s"], res.CPU)
			rep.Samples["peak_rss_mb"] = append(rep.Samples["peak_rss_mb"], float64(res.PeakRSSKB)/1024)
		}
		// The abandoned repetition of a timeout still runs: measure no more.
		timedOut = errors.Is(err, errTimeout)
		if timedOut || time.Since(start).Seconds() >= cfg.Seconds {
			break
		}
	}
	values := map[string]float64{
		"setup_s":     setup,
		"e2e_s":       median(rep.Samples["e2e_s"]),
		"resolve_s":   median(rep.Samples["resolve_s"]),
		"cpu_s":       median(rep.Samples["cpu_s"]),
		"peak_rss_mb": median(rep.Samples["peak_rss_mb"]),
		"f1":          warm.Guard.F1,
	}
	rep.EndToEnd = make(map[string]metricValue, len(endToEnd))
	for _, def := range endToEnd {
		bound := def.Bound
		rep.EndToEnd[def.Name] = metricValue{Value: values[def.Name], Unit: def.Unit, Better: def.Better, Bound: &bound}
	}

	if cfg.Trace && !timedOut {
		runtime.GC()
		tr := newTracer(cfg.W.Name, rep.Ops+1)
		res, err := run.repetition(tr)
		if check(res, err) != nil {
			return rep, nil
		}
		scoreNs, err := scoreNsPerPair(in.full, in.rules, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("classifier timing: %w", err)
		}
		layer := layerMetrics(cfg.W.Mode, res, tr.spans, ref.Stats.Valuations, values["e2e_s"], scoreNs)
		rep.PerLayer = make(map[string]metricValue, len(perLayer))
		for _, def := range perLayer {
			rep.PerLayer[def.Name] = metricValue{Value: layer[def.Name], Unit: def.Unit, Better: def.Better}
		}
		rep.Spans = tr.spans
	}
	return rep, nil
}
