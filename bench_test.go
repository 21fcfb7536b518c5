// The repo's one kernel harness, driven by Go's own benchmark runner:
// benchmarks regenerating every table and figure of the paper's evaluation
// (Section VI), the chase and partitioner kernels, ablation benches for the
// design choices called out in DESIGN.md (MQO sharing, replication cap)
// and the storage arms. Run with:
//
//	go test -run=NONE -bench=. -benchmem
//	go test -run=NONE -bench 'DeduceParallel|IncDeduce' -count 3 -cpu 1,2
//	go test -run=NONE -bench DeduceParallel -cpuprofile cpu.prof -memprofile mem.prof
//
// scripts/ci.sh gates BenchmarkDeduceParallel, BenchmarkIncDeduce,
// BenchmarkInsertTuples and BenchmarkLoadDir against BENCH_GATE.txt
// (scripts/benchgate).
// BenchmarkStorage is heavy — about 400 MiB at scale 20, 770 MiB for
// budget1M's million tuples — so select it by name. End-to-end numbers are
// the repository benchmark's (benchmark/); the per-experiment drivers live
// in internal/experiments and are shared with cmd/experiments, which prints
// the full tables.
package dcer_test

import (
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"dcer"
	"dcer/internal/chase"
	"dcer/internal/datagen"
	"dcer/internal/dmatch"
	"dcer/internal/experiments"
	"dcer/internal/hypart"
	"dcer/internal/mlpred"
)

// benchCfg keeps every driver at bench scale.
var benchCfg = experiments.Config{Scale: 0.1, Workers: 8, Seed: 1}

func BenchmarkTableV_Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.TableV(benchCfg)
	}
}

func BenchmarkTableVI_VaryDup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.TableVI(benchCfg)
	}
}

func BenchmarkFig6ab_Ablations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6AB(benchCfg)
	}
}

func BenchmarkFig6cd_VaryDup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6CD(benchCfg)
	}
}

func BenchmarkFig6ef_VaryPredicates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6EF(benchCfg)
	}
}

func BenchmarkFig6gh_VaryRules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6GH(benchCfg)
	}
}

func BenchmarkFig6ij_VaryWorkers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6IJ(benchCfg)
	}
}

func BenchmarkFig6kl_VaryScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6KL(experiments.Config{Scale: 0.05, Workers: 8, Seed: 1})
	}
}

func BenchmarkExp2_Partitioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Partitioning(benchCfg)
	}
}

// --- Component benchmarks -------------------------------------------------

func tpchFixture(b *testing.B, scale float64) (*datagen.Generated, []*dcer.Rule) {
	b.Helper()
	if testing.Short() && scale > 0.5 {
		b.Skipf("scale %.1f fixture is heavyweight; run benchmarks without -short", scale)
	}
	g := datagen.TPCH(datagen.TPCHOptions{Scale: scale, Dup: 0.3, Seed: 1})
	rules, err := g.Rules()
	if err != nil {
		b.Fatal(err)
	}
	return g, rules
}

// gateFixture is the fixture of the four benchmarks scripts/ci.sh gates
// against BENCH_GATE.txt: TPCH scale 2.0 (57 336 tuples, 6 rules), Dup 0.3,
// Seed 1. Under -short it shrinks to scale 0.2, so that CI's one-iteration
// bench smoke still runs their bodies and class-identity asserts.
func gateFixture(b *testing.B) (*datagen.Generated, []*dcer.Rule) {
	b.Helper()
	if testing.Short() {
		return tpchFixture(b, 0.2)
	}
	return tpchFixture(b, 2.0)
}

// sequentialArm runs a benchmark's "sequential" arm at GOMAXPROCS 1 —
// one pool goroutine runs every task: the schedule of a one-core host —
// and returns the restore of the old width, to defer.
func sequentialArm(b *testing.B) func() {
	old := runtime.GOMAXPROCS(1)
	b.ResetTimer()
	return func() { runtime.GOMAXPROCS(old) }
}

// BenchmarkDeduceParallel measures the first-pass Deduce hot path on a
// multi-rule workload (gateFixture), the pool at width 1 vs the
// concurrent snapshot-enumerate-merge pass at the benchmark's width, and
// asserts both reach the identical equivalence relation.
func BenchmarkDeduceParallel(b *testing.B) {
	g, rules := gateFixture(b)
	reg := mlpred.DefaultRegistry()
	classes := make(map[string]string)
	for _, mode := range []string{"sequential", "concurrent"} {
		b.Run(mode, func(b *testing.B) {
			if mode == "sequential" {
				defer sequentialArm(b)()
			}
			var last *chase.Engine
			for i := 0; i < b.N; i++ {
				eng, err := chase.New(g.D, rules, reg, chase.Options{ShareIndexes: true})
				if err != nil {
					b.Fatal(err)
				}
				eng.Deduce()
				last = eng
			}
			b.StopTimer()
			classes[mode] = dcer.CanonicalClasses(last.Classes())
		})
	}
	if a, c := classes["sequential"], classes["concurrent"]; a != "" && c != "" && a != c {
		b.Fatal("sequential and concurrent Deduce disagree on the equivalence classes")
	}
}

// BenchmarkIncDeduce measures the incremental algorithm A_Δ: a full
// chase's facts are replayed through IncDeduce into a fresh engine, which
// exercises the update-driven drain that dominates the Fig. 6 drivers —
// at the benchmark's width, whose drain batches fan out over the pool
// (run with -cpu 2 or more to time that fan-out; at -cpu 1 both arms run
// one goroutine), and at width 1. Both must converge to the full chase's
// equivalence classes.
func BenchmarkIncDeduce(b *testing.B) {
	g, rules := gateFixture(b)
	reg := mlpred.DefaultRegistry()
	base, err := chase.New(g.D, rules, reg, chase.Options{ShareIndexes: true})
	if err != nil {
		b.Fatal(err)
	}
	facts := base.Deduce()
	want := dcer.CanonicalClasses(base.Classes())
	for _, mode := range []string{"default", "sequential"} {
		b.Run(mode, func(b *testing.B) {
			if mode == "sequential" {
				defer sequentialArm(b)()
			}
			var last *chase.Engine
			for i := 0; i < b.N; i++ {
				eng, err := chase.New(g.D, rules, reg, chase.Options{ShareIndexes: true})
				if err != nil {
					b.Fatal(err)
				}
				eng.IncDeduce(facts)
				last = eng
			}
			b.StopTimer()
			if got := dcer.CanonicalClasses(last.Classes()); got != want {
				b.Fatal("IncDeduce classes diverge from the full chase")
			}
		})
	}
}

// BenchmarkInsertTuples measures the ΔD path: three quarters of gateFixture
// (every tuple but each fourth) are resolved with Run outside the timer,
// then the held-back quarter is appended and handed to InsertTuples in 16
// batches, at the benchmark's width and at width 1. Both must reach the
// full chase's equivalence classes.
func BenchmarkInsertTuples(b *testing.B) {
	g, rules := gateFixture(b)
	reg := mlpred.DefaultRegistry()
	base, err := chase.New(g.D, rules, reg, chase.Options{ShareIndexes: true})
	if err != nil {
		b.Fatal(err)
	}
	base.Run()
	want := dcer.CanonicalClasses(base.Classes())
	var kept, held []*dcer.Tuple
	for i, t := range g.D.Tuples() {
		if i%4 == 3 {
			held = append(held, t)
		} else {
			kept = append(kept, t)
		}
	}
	const batches = 16
	for _, mode := range []string{"default", "sequential"} {
		b.Run(mode, func(b *testing.B) {
			if mode == "sequential" {
				defer sequentialArm(b)()
			}
			var last *chase.Engine
			var src []dcer.TID // the fixture's GID of each tuple of the last dataset
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := dcer.NewDataset(g.D.DB)
				src = src[:0]
				for _, t := range kept {
					d.MustAppend(g.D.SchemaOf(t).Name, t.Values()...)
					src = append(src, t.GID)
				}
				eng, err := chase.New(d, rules, reg, chase.Options{ShareIndexes: true})
				if err != nil {
					b.Fatal(err)
				}
				eng.Run()
				b.StartTimer()
				for k := range batches {
					batch := make([]*dcer.Tuple, 0, len(held)/batches+1)
					for _, t := range held[k*len(held)/batches : (k+1)*len(held)/batches] {
						batch = append(batch, d.MustAppend(g.D.SchemaOf(t).Name, t.Values()...))
						src = append(src, t.GID)
					}
					if _, err := eng.InsertTuples(batch); err != nil {
						b.Fatal(err)
					}
				}
				last = eng
			}
			b.StopTimer()
			classes := last.Classes()
			for _, c := range classes {
				for k, id := range c {
					c[k] = src[id]
				}
			}
			if dcer.CanonicalClasses(classes) != want {
				b.Fatal("InsertTuples classes diverge from the full chase")
			}
		})
	}
}

// BenchmarkLoadDir measures CSV ingest: gateFixture's dataset is written
// once as a CSV directory, then loaded back whole per iteration, parse,
// intern and tuple handles included. Every load must reproduce the
// fixture's tuple count and symbol count.
func BenchmarkLoadDir(b *testing.B) {
	g, _ := gateFixture(b)
	dir := b.TempDir()
	if err := dcer.SaveDir(g.D, dir); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := dcer.LoadDir(dir)
		if err != nil {
			b.Fatal(err)
		}
		if d.Size() != g.D.Size() || d.Syms().Len() != g.D.Syms().Len() {
			b.Fatalf("loaded %d tuples, %d symbols; want %d, %d", d.Size(), d.Syms().Len(), g.D.Size(), g.D.Syms().Len())
		}
	}
}

// BenchmarkSequentialMatch measures the sequential Match engine on TPCH.
func BenchmarkSequentialMatch(b *testing.B) {
	g, rules := tpchFixture(b, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := chase.New(g.D, rules, mlpred.DefaultRegistry(), chase.Options{ShareIndexes: true})
		if err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
}

// BenchmarkParallelDMatch measures the BSP engine at several worker counts
// (the Theorem 7 parallel-scalability claim in benchmark form).
func BenchmarkParallelDMatch(b *testing.B) {
	g, rules := tpchFixture(b, 0.2)
	for _, n := range []int{1, 2, 4, 8, 16} {
		b.Run(itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dmatch.Run(g.D, rules, mlpred.DefaultRegistry(),
					dmatch.Options{Workers: n}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHyPart measures partitioning alone: the MQO-sharing ablation,
// and the packed-key partitioner at GOMAXPROCS 1 and 8, which set its shard
// count. Before any timing it asserts that the sharded pass is
// byte-identical to the sequential one (the equivalence guard CI runs as a
// bench smoke).
func BenchmarkHyPart(b *testing.B) {
	g, rules := tpchFixture(b, 0.2)
	procs0 := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs0)
	seq, err := hypart.Partition(g.D, rules, 16, hypart.Options{Share: true})
	if err != nil {
		b.Fatal(err)
	}
	runtime.GOMAXPROCS(8)
	par, err := hypart.Partition(g.D, rules, 16, hypart.Options{Share: true})
	if err != nil {
		b.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Fragments, par.Fragments) ||
		!reflect.DeepEqual(seq.RuleFragments, par.RuleFragments) {
		b.Fatal("sharded Partition diverges from the sequential path")
	}
	runtime.GOMAXPROCS(procs0)
	for _, share := range []bool{true, false} {
		name := "mqo"
		if !share {
			name = "noMQO"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := hypart.Partition(g.D, rules, 16, hypart.Options{Share: share}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, procs := range []int{1, 8} {
		b.Run("gomaxprocs="+itoa(procs), func(b *testing.B) {
			runtime.GOMAXPROCS(procs)
			for i := 0; i < b.N; i++ {
				if _, err := hypart.Partition(g.D, rules, 16, hypart.Options{Share: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationReplicationCap sweeps HyPart's replication cap over 8
// workers: higher caps spread wide rules over more blocks at the price of
// more copies. DMatch itself always runs HyPart's default cap.
func BenchmarkAblationReplicationCap(b *testing.B) {
	g, rules := tpchFixture(b, 0.1)
	for _, rc := range []int{1, 2, 4, 8} {
		b.Run(itoa(rc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := hypart.Partition(g.D, rules, 8,
					hypart.Options{Share: true, ReplicationCap: rc}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMLPredicates measures the classifier battery on product
// descriptions (the dominant per-valuation cost).
func BenchmarkMLPredicates(b *testing.B) {
	a := "ThinkPad X1 Carbon 7th Gen : 14-Inch, 16GB RAM, 512GB Nvme SSD"
	c := "ThinkPad X1 Carbon 7th Gen 14\" - 16 GB RAM - 512 GB SSD"
	b.Run("jaccard", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mlpred.Jaccard(a, c)
		}
	})
	b.Run("jaro", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mlpred.JaroWinkler(a, c)
		}
	})
	b.Run("levenshtein", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mlpred.Levenshtein(a, c)
		}
	})
	b.Run("embedding", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mlpred.EmbeddingSim(a, c, mlpred.EmbeddingDim)
		}
	})
}

// BenchmarkSimKernels sets a threshold classifier's exact decider against
// its scoring kernel on the three kinds of pair a chase feeds it: a match,
// a pair one edit / one token under the threshold, and unrelated texts of
// the same shape (17-character VINs for lev080, advisory sentences for
// jaccard05). Not gated.
func BenchmarkSimKernels(b *testing.B) {
	reg := mlpred.DefaultRegistry()
	feat := func(s string) *mlpred.Features { return mlpred.ComputeFeatures([]dcer.Value{dcer.S(s)}, 0) }
	for _, arm := range []struct{ model, kind, x, y string }{
		{"lev080", "match", "WVWZZZ1JZ3W386752", "WVWZZZ1JZ3W386725"},
		{"lev080", "near", "WVWZZZ1JZ3W386752", "WVWZZZ1JZ3W3A67B5"},
		{"lev080", "random", "WVWZZZ1JZ3W386752", "1HGCM82633A004352"},
		{"jaccard05", "match", "nearside front tyre worn close to the legal limit", "front nearside tyre worn close to legal limit"},
		{"jaccard05", "near", "nearside front tyre worn close to the legal limit", "offside rear tyre worn close to the edge"},
		{"jaccard05", "random", "nearside front tyre worn close to the legal limit", "exhaust has a minor leak of gases"},
	} {
		cl, err := reg.Get(arm.model)
		if err != nil {
			b.Fatal(err)
		}
		sc := cl.(*mlpred.SimClassifier)
		fx, fy := feat(arm.x), feat(arm.y)
		fx.Tokens()
		fy.Tokens()
		want := sc.ScoreFeatures(fx, fy) >= sc.Threshold
		b.Run(arm.model+"/"+arm.kind+"/decide", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if sc.Decide(fx, fy, sc.Threshold) != want {
					b.Fatal("decider disagrees with the kernel")
				}
			}
		})
		b.Run(arm.model+"/"+arm.kind+"/score", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if (sc.ScoreFeatures(fx, fy) >= sc.Threshold) != want {
					b.Fatal("kernel disagrees with itself")
				}
			}
		})
	}
}

// BenchmarkStorage measures what the columnar storage layer is judged on —
// memory, not time: bulk ingest and a full Deduce at TPCH scale 20
// (573 552 tuples). Each arm reports the bytes it left live per tuple, the
// live heap after a forced GC, and the process peak RSS.
func BenchmarkStorage(b *testing.B) {
	b.Run("ingest", func(b *testing.B) {
		storageArm(b, func() (int, any) {
			g, _ := tpchFixture(b, 20)
			return g.D.Size(), g
		})
	})
	b.Run("deduce", func(b *testing.B) {
		g, rules := tpchFixture(b, 20)
		storageArm(b, func() (int, any) {
			eng, err := chase.New(g.D, rules, mlpred.DefaultRegistry(), chase.Options{ShareIndexes: true})
			if err != nil {
				b.Fatal(err)
			}
			eng.Deduce()
			return g.D.Size(), eng
		})
	})
}

// storageArm times run from a collected heap that has been returned to the
// OS, with the RSS high-water mark reset where the kernel permits (writing
// /proc/self/clear_refs needs CAP_SYS_RESOURCE; without it the peak
// accumulates over the process, and only the first arm run reads its own),
// and reports what the last run's result holds live.
func storageArm(b *testing.B, run func() (tuples int, result any)) {
	var before, after runtime.MemStats
	var tuples int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		debug.FreeOSMemory()
		_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
		runtime.ReadMemStats(&before)
		b.StartTimer()
		var result any
		tuples, result = run()
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(result)
	}
	const MiB = 1 << 20
	b.ReportMetric((float64(after.HeapAlloc)-float64(before.HeapAlloc))/float64(tuples), "B/tuple")
	b.ReportMetric(float64(after.HeapAlloc)/MiB, "live-MiB")
	b.ReportMetric(float64(peakRSSBytes())/MiB, "peak-RSS-MiB")
}

// peakRSSBytes reads the process's high-water resident set (VmHWM) from
// /proc/self/status; 0 where there is none to read.
func peakRSSBytes() int64 {
	status, _ := os.ReadFile("/proc/self/status")
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10
		}
	}
	return 0
}

func itoa(n int) string { return strconv.Itoa(n) }
