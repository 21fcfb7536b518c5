package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, name, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baselineText = `goos: linux
pkg: dcer
BenchmarkDeduceParallel/sequential-2   	       5	 200000000 ns/op
BenchmarkDeduceParallel/concurrent-2   	       7	 160000000 ns/op	33010969 B/op	   45182 allocs/op
BenchmarkIncDeduce/default-2           	      45	  28000000 ns/op
PASS
`

// TestGate: the minimum over a benchmark's repeated lines is what is
// compared; 25 % over the baseline passes and anything above fails; a
// baseline benchmark the fresh run lacks fails; benchmarks only the fresh
// run has are not gated.
func TestGate(t *testing.T) {
	base := write(t, "base.txt", baselineText)
	for _, c := range []struct {
		name, fresh string
		ok          bool
		out         string
	}{
		{"min of three inside the threshold", `
BenchmarkDeduceParallel/sequential-2   5  390000000 ns/op
BenchmarkDeduceParallel/sequential-2   5  250000000 ns/op
BenchmarkDeduceParallel/sequential-2   5  300000000 ns/op
BenchmarkDeduceParallel/concurrent-2   7  120000000 ns/op
BenchmarkIncDeduce/default-2          45   28000000 ns/op
BenchmarkHyPart/mqo-2                 99  999999999 ns/op
`, true, "+25.0%  ok"},
		{"one benchmark past it", `
BenchmarkDeduceParallel/sequential-2   5  200000000 ns/op
BenchmarkDeduceParallel/concurrent-2   7  201000000 ns/op
BenchmarkDeduceParallel/concurrent-2   7  230000000 ns/op
BenchmarkIncDeduce/default-2          45   28000000 ns/op
`, false, "+25.6%  FAIL"},
		{"a gated benchmark not run", `
BenchmarkDeduceParallel/sequential-2   5  200000000 ns/op
BenchmarkDeduceParallel/concurrent-2   7  160000000 ns/op
BenchmarkIncDeduce/default-1          45   28000000 ns/op
`, false, "FAIL: not in"},
	} {
		var out strings.Builder
		ok, err := gate(&out, base, write(t, "fresh.txt", c.fresh))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.out) {
			t.Errorf("%s: gate = %v, want %v with %q in:\n%s", c.name, ok, c.ok, c.out, out.String())
		}
		if strings.Contains(out.String(), "HyPart") {
			t.Errorf("%s: a benchmark outside the baseline was gated:\n%s", c.name, out.String())
		}
	}
	// A gate over nothing is an error, not a pass.
	for _, text := range []string{"PASS\n", "BenchmarkX-2  5  fast ns/op\n"} {
		if ok, err := gate(&strings.Builder{}, write(t, "empty.txt", text), base); err == nil {
			t.Errorf("baseline %q: gate = %v, nil; want an error", text, ok)
		}
	}
	if _, err := gate(&strings.Builder{}, base, filepath.Join(t.TempDir(), "absent.txt")); err == nil {
		t.Error("missing fresh file: want an error")
	}
}

// TestGateRepoBaseline runs the gate the way scripts/ci.sh self-tests it,
// over the committed BENCH_GATE.txt: against itself it passes, against a
// copy with every ns/op halved it fails on all seven gated benchmarks.
func TestGateRepoBaseline(t *testing.T) {
	repo := filepath.Join("..", "..", "BENCH_GATE.txt")
	min, names, err := readMin(repo)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 7 {
		t.Fatalf("BENCH_GATE.txt gates %v, want the two arms each of DeduceParallel, IncDeduce and InsertTuples, and LoadDir", names)
	}
	var out strings.Builder
	if ok, err := gate(&out, repo, repo); err != nil || !ok {
		t.Fatalf("baseline against itself: %v, %v\n%s", ok, err, out.String())
	}
	var halved strings.Builder
	for _, name := range names {
		fmt.Fprintf(&halved, "%s 1 %.0f ns/op\n", name, min[name]/2)
	}
	out.Reset()
	ok, err := gate(&out, write(t, "halved.txt", halved.String()), repo)
	if err != nil || ok || strings.Count(out.String(), "FAIL") != 7 {
		t.Fatalf("halved baseline: gate = %v, %v, want seven failures:\n%s", ok, err, out.String())
	}
}
