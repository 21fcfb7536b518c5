// Command benchgate is CI's bench-regression gate over two files of
// `go test -bench` output, `benchgate BENCH_GATE.txt fresh.txt`: it takes
// each benchmark's minimum ns/op over its repeated lines (-count) and
// exits 1 when a benchmark of the committed baseline reads more than 25 %
// slower in the fresh run, or is missing from it.
package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// thresholdPct is the bound BENCHMARK.json puts on its timing metrics,
// for the same reason: the host resolves no less.
const thresholdPct = 25

// readMin returns each benchmark's minimum ns/op in the file, and the
// benchmarks in the order first seen.
func readMin(path string) (map[string]float64, []string, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	min := make(map[string]float64)
	var names []string
	for _, line := range strings.Split(string(text), "\n") {
		f := strings.Fields(line) // BenchmarkName-2  N  ns ns/op  …
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
			continue
		}
		ns, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %s: %w", path, f[0], err)
		}
		if old, seen := min[f[0]]; !seen {
			names = append(names, f[0])
		} else if old < ns {
			ns = old
		}
		min[f[0]] = ns
	}
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("%s: no benchmark line", path)
	}
	return min, names, nil
}

// gate prints one line per benchmark of the baseline and reports whether
// every one of them was run and stayed inside the threshold.
func gate(w io.Writer, baseline, fresh string) (bool, error) {
	base, names, err := readMin(baseline)
	if err != nil {
		return false, err
	}
	got, _, err := readMin(fresh)
	if err != nil {
		return false, err
	}
	ok := true
	for _, name := range names {
		ns, ran := got[name]
		delta := 100 * (ns - base[name]) / base[name]
		verdict := "ok"
		if !ran {
			verdict, ok = "FAIL: not in "+fresh+" (another -cpu?)", false
		} else if delta > thresholdPct {
			verdict, ok = "FAIL", false
		}
		fmt.Fprintf(w, "%-42s %8.1f ms -> %8.1f ms  %+6.1f%%  %s\n", name, base[name]/1e6, ns/1e6, delta, verdict)
	}
	return ok, nil
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchgate BASELINE.txt FRESH.txt")
		os.Exit(2)
	}
	switch ok, err := gate(os.Stdout, os.Args[1], os.Args[2]); {
	case err != nil:
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	case !ok:
		os.Exit(1)
	}
}
