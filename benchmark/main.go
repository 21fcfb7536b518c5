// Command benchmark is the repository's benchmark: five CSV→Γ workloads,
// six end-to-end metrics per workload, and a per-layer budget from one
// traced repetition. See README.md in this directory.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh [-workload name] [-seed n] [-seconds n] [-trace 0|1]
//	                      [-json path] [-spans path] [-selfcheck]
//
// With -workload, the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"} holding the end-to-end
// metrics (-trace 0) or the per-layer metrics (-trace 1). Without it every
// workload runs, traced, each in a child process, and a table is printed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
)

// Every run uses both cores of the host; the tpch-dist worker processes
// get one each.
const benchProcs = 2

// runSeconds is how long a run keeps starting gated repetitions unless
// -seconds says otherwise; BENCHMARK.json hands the driver the same number.
const runSeconds = 18

// workRoot, relative to the directory the benchmark is started in, is
// where every process keeps its generated inputs and outputs, each in a
// fresh directory that it removes when it ends.
var workRoot = filepath.Join(".bench_build", "work")

func main() {
	if os.Getenv(workerEnv) != "" {
		if err := workerMain(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark worker:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	runtime.GOMAXPROCS(benchProcs)
	name := flag.String("workload", "", "run this workload only (default: all five, traced)")
	seed := flag.Int64("seed", 1, "seed for the row order of the generated relations")
	secs := flag.Float64("seconds", runSeconds, "gated repetitions of a workload start until this much time has passed")
	trace := flag.Int("trace", 0, "with -workload: 1 adds the traced repetition and prints the per-layer metrics")
	jsonPath := flag.String("json", "", "write the full report to this file")
	spansPath := flag.String("spans", "", "write the traced repetitions' spans to this file")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice, the second time in reverse order, and compare the two runs against the bounds")
	flag.Parse()

	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating own binary for the worker processes: %w", err)
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workRoot, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	base := config{Seed: *seed, Seconds: *secs, WorkDir: dir, Exe: exe}

	// An interrupted run still removes its inputs. A repetition under way
	// in this process cannot be stopped, so the single-workload mode leaves
	// at once (its worker processes exit when the master's sockets close);
	// the other modes cancel the child process and return.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		if *name != "" {
			os.RemoveAll(dir)
			os.Exit(130)
		}
		cancel()
	}()

	switch {
	case *selfcheck:
		return runSelfcheck(ctx, base)
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		cfg := base
		cfg.W, cfg.Trace = w, *trace != 0
		rep, err := runWorkload(cfg)
		if err != nil {
			return err
		}
		if err := writeOutputs([]*report{rep}, *jsonPath, *spansPath); err != nil {
			return err
		}
		printTable(os.Stderr, rep)
		line, err := driverLine(rep, cfg.Trace)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	default:
		var reps []*report
		for _, w := range workloads {
			cfg := base
			cfg.W, cfg.Trace = w, true
			rep, err := runInChild(ctx, cfg)
			if err != nil {
				return err
			}
			printTable(os.Stdout, rep)
			reps = append(reps, rep)
		}
		if err := writeOutputs(reps, *jsonPath, *spansPath); err != nil {
			return err
		}
		return crossCheck(reps)
	}
}

// fullReport is the -json file.
type fullReport struct {
	GOMAXPROCS int       `json:"gomaxprocs"`
	Workloads  []*report `json:"workloads"`
}

// runInChild runs one workload in a process of its own, as the driver
// does: in one process, a workload's heap would become the next one's
// resident-set baseline. The child keeps its inputs in a directory of its
// own; cfg.WorkDir only receives its report.
func runInChild(ctx context.Context, cfg config) (*report, error) {
	jsonPath := filepath.Join(cfg.WorkDir, cfg.W.Name+".json")
	spansPath := filepath.Join(cfg.WorkDir, cfg.W.Name+".spans.json")
	trace := "0"
	if cfg.Trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, cfg.Exe,
		"-workload", cfg.W.Name,
		"-seed", strconv.FormatInt(cfg.Seed, 10),
		"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64),
		"-trace", trace, "-json", jsonPath, "-spans", spansPath)
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("%s: %w\n%s", cfg.W.Name, err, out)
	}
	var full fullReport
	if err := readJSON(jsonPath, &full); err != nil {
		return nil, err
	}
	if len(full.Workloads) != 1 {
		return nil, fmt.Errorf("%s: child reported %d workloads", cfg.W.Name, len(full.Workloads))
	}
	rep := full.Workloads[0]
	return rep, readJSON(spansPath, &rep.Spans)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// crossCheck holds the four TPCH workloads to one Γ digest and every
// workload to zero failed operations.
func crossCheck(reps []*report) error {
	var tpch string
	for _, r := range reps {
		if !r.correct() {
			return fmt.Errorf("%s: %d of %d operations failed", r.Workload, r.Failed, r.Ops)
		}
		if w, _ := findWorkload(r.Workload); w.Kind != "tpch" {
			continue
		}
		if tpch == "" {
			tpch = r.Digest
		}
		if r.Digest != tpch {
			return fmt.Errorf("%s reached Γ digest %s, the other TPCH workloads %s", r.Workload, r.Digest, tpch)
		}
	}
	return nil
}

// driverLine renders the one-line result the benchmark driver reads: the
// end-to-end metrics, or the per-layer metrics of a traced run.
func driverLine(rep *report, traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := rep.EndToEnd
	if traced {
		src = rep.PerLayer
	}
	metrics := make(map[string]value, len(src))
	for name, m := range src {
		metrics[name] = value{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct(), rep.Ops, rep.Failed, metrics})
}

func printTable(w *os.File, rep *report) {
	fmt.Fprintf(w, "%s  seed %d  scale %g  %d tuples  ops %d  failed %d  Γ %.12s\n",
		rep.Workload, rep.Seed, rep.Scale, rep.Tuples, rep.Ops, rep.Failed, rep.Digest)
	for _, def := range endToEnd {
		m := rep.EndToEnd[def.Name]
		fmt.Fprintf(w, "  %-28s %14.6g %-6s (%s is better, bound %g%%)\n", def.Name, m.Value, m.Unit, m.Better, 100*def.Bound)
	}
	if rep.PerLayer == nil {
		return
	}
	for _, def := range perLayer {
		m := rep.PerLayer[def.Name]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", def.Name, m.Value, m.Unit)
	}
}

// writeOutputs writes the -json report and the -spans file.
func writeOutputs(reps []*report, jsonPath, spansPath string) error {
	if jsonPath != "" {
		if err := writeJSON(jsonPath, fullReport{benchProcs, reps}); err != nil {
			return err
		}
	}
	if spansPath != "" {
		spans := []span{}
		for _, r := range reps {
			spans = append(spans, r.Spans...)
		}
		return writeJSON(spansPath, spans)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
