#!/usr/bin/env bash
# CI entry point: formatting and static analysis, build, the short test
# suite, the five examples/ programs, the race-enabled run of the concurrent packages, Γ, the partition
# and the CSV load at three widths, four fuzz smokes, a one-shot bench smoke, the
# causal-trace race guard (with the live telemetry/health endpoint test
# and the cmd/doctor scrape of a live endpoint), the bench-regression gate
# of `go test -bench` against BENCH_GATE.txt, and the nested benchmark
# module's own vet and tests.
# The task pool that runs the one seed pass (Deduce's at epoch 0 and each
# InsertTuples batch's) and every drain batch on GOMAXPROCS goroutines
# (internal/chase),
# the DMatch master loop with its per-worker link goroutines
# (internal/dmatch), the justification log written from concurrent drains
# (internal/provenance), the TCP links' sender and reader goroutines over
# the shared wire stats (internal/wire), the lock-free hash memo the HyPart
# scan shards fill concurrently (internal/mqo), the CAS-published
# feature store every enumeration goroutine probes (internal/mlpred), and
# the CSV ingest's parse goroutines writing disjoint rows of shared columns
# beside the symbol table's lock-free readers (internal/relation) make the
# race detector mandatory for those packages.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -short ./..."
go test -short ./...

echo "== examples (each examples/ program runs to completion; softmatching goes through Explain)"
for ex in examples/*/; do
    go run "./$ex" > /dev/null
done

echo "== go test -race -short ./internal/chase ./internal/dmatch ./internal/hypart ./internal/mqo ./internal/mlpred ./internal/telemetry ./internal/provenance ./internal/health ./internal/wire ./internal/relation"
go test -race -short ./internal/chase ./internal/dmatch ./internal/hypart ./internal/mqo ./internal/mlpred ./internal/telemetry ./internal/provenance ./internal/health ./internal/wire ./internal/relation

echo "== width independence (GOMAXPROCS is the only width of the chase pool, the HyPart scan and the CSV parse: golden Gamma sequence and class-set digests, partition and load digests, Gamma's fact sequence at width 1 vs the live width for Run, an IncDeduce replay and a random InsertTuples split, the drain's chunking at forced widths 1, 2 and 4, the one seed pass of Run and InsertTuples (inserts with and without Run first, no valuation emitted twice across Run and every batch) and Partition, the pool's own contract, join-order invariance (class steps over multi-member classes and the epoch cut included), key maps under inserts and the TPCH join orders with their class steps and the root-then-single split of each empty pattern's order, GID-ascending candidate lists (root, DMatch worker and inserted engines), the GID window against a linear filter, fragments over shuffled ids (same fragment, same Gamma), pool tasks reading E_id without compressing it, batched index growth against a rebuild, the load against its encoding/csv oracle, at 1, 2 and 4)"
go test -short -count=1 -cpu 1,2,4 -run 'TestGammaGoldenDigest|TestDeduceParallelEquivalence|TestDrainParallelEquivalence|TestInsertTuples|TestInsertSeedsEnumerateOnce|TestPool|TestJoinOrderInvariance|TestKeyMapFollowsInserts|TestJoinOrderTPCH|TestCandidateListsAscending|TestGIDWindow|TestFragmentShuffledIDs|TestPoolReadsEidInPlace' ./internal/chase
go test -short -count=1 -cpu 1,2,4 -run 'TestPartitionGoldenDigest|TestPartitionParallelEquivalence' ./internal/hypart
go test -short -count=1 -cpu 1,2,4 -run 'TestLoadDirGoldenDigest|TestLoadDirEqualsReference|TestIndexSetAddBatchEqualsRebuild|TestDatasetFragment' ./internal/relation

echo "== CSV ingest (10 s fuzz: LoadCSVInto, cut into pieces of a few bytes, loads what the encoding/csv oracle loads, or both fail; never a panic)"
go test -run=NONE -fuzz=FuzzLoadCSV -fuzztime=10s -fuzzminimizetime=100x ./internal/relation

echo "== provenance equivalence (proof replay vs the reference verifier: default engine + DMatch w>=2, then the drain's batches split at forced widths 2 and 4)"
go test -short -run 'TestProofReplaysAgainstVerifier|TestDMatchProofEveryPair' ./internal/provenance
go test -short -run 'TestProofReplaysUnderBatchedDrain' ./internal/chase

echo "== distribution equivalence guards (dedup-routing Gamma equality + distributed TCP Gamma equality, recovery (orphans only), rebalance, rebalance+crash, superstep limit, NoMQO through both links, protocol version refusal)"
go test -short -count=1 -run 'TestRoutingDedupGammaEquality|TestAdaptiveRebalance|TestDistributedEqualsInProcess|TestDistributedRecovery|TestRecoveryMovesOnlyOrphans|TestDistributedRebalance|TestDistributedRebalanceAndCrash|TestSuperstepLimit|TestNoMQOReachesWorkers|TestDistributedVersionMismatch' ./internal/dmatch

echo "== one DMatch: non-blank non-test lines of internal/dmatch, then of the root module"
ls internal/dmatch/*.go | grep -v _test | xargs cat | grep -cv '^\s*$'
find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | grep -cv '^\s*$'

echo "== option surface (exported fields of chase.Options and dmatch.Options; a new knob edits TestOptionsSurface)"
go test -count=1 -v -run 'TestOptionsSurface' ./internal/dmatch | grep -E 'exported fields|^(ok|FAIL|---)'

echo "== distributed process smoke (2 real worker processes over TCP: -out CSV byte-identity vs in-process, then kill-one-worker recovery)"
dist_data=/tmp/dcer_ci_dist_data
rm -rf "$dist_data"
go run ./cmd/datagen -kind tpch -scale 0.05 -dup 0.4 -seed 7 -out "$dist_data"
go build -o /tmp/dcer_ci_dmatch ./cmd/dmatch
/tmp/dcer_ci_dmatch -data "$dist_data" -rules "$dist_data/rules.mrl" -workers 2 -out /tmp/dcer_ci_inproc.csv > /dev/null
/tmp/dcer_ci_dmatch -data "$dist_data" -rules "$dist_data/rules.mrl" -workers 2 -distributed -out /tmp/dcer_ci_dist.csv > /dev/null
diff /tmp/dcer_ci_inproc.csv /tmp/dcer_ci_dist.csv
# Kill worker 1 after its first delta: the master must reassign its
# blocks, rebuild the survivors over the wire, and still match the
# in-process Gamma byte for byte.
/tmp/dcer_ci_dmatch -data "$dist_data" -rules "$dist_data/rules.mrl" -workers 3 -out /tmp/dcer_ci_inproc3.csv > /dev/null
/tmp/dcer_ci_dmatch -data "$dist_data" -rules "$dist_data/rules.mrl" -workers 3 -distributed -crash-worker 1 -v \
    -out /tmp/dcer_ci_crash.csv > /dev/null 2> /tmp/dcer_ci_crash.log
diff /tmp/dcer_ci_inproc3.csv /tmp/dcer_ci_crash.csv
if ! grep -q "recoveries=1" /tmp/dcer_ci_crash.log; then
    echo "kill-one-worker run did not record a recovery:" >&2
    cat /tmp/dcer_ci_crash.log >&2
    exit 1
fi

echo "== plan equivalence guards (compiled plans vs interpreter: Gamma byte-identity with and without shared indexes, DMatch; the static program order, unchanged by Run and inserts; symmetry reduction: which rules reduce, halved valuations with the recorded TPCH Gamma, directional rules left alone; then racing the compiled path, the join orders with their class steps, the key maps and PlanReport snapshots)"
go test -short -count=1 -run 'TestSymmetry' ./internal/rule
go test -short -count=1 -run 'TestPlanGammaEquivalence|TestPlanDMatchEquivalence|TestPlanProgramOrder|TestSymmetry' ./internal/chase
go test -race -short -count=1 -run 'TestPlan|TestSymmetry|TestJoinOrderInvariance|TestKeyMapFollowsInserts|TestJoinOrderTPCH' ./internal/chase

echo "== similarity-join and decider guards (access path vs the scanning interpreter: Gamma sequence with and without shared indexes, InsertTuples vs re-chase with lengthened postings and a new value, one raw score per invocation under calibration, invocation counts that repeat, TFACC through both DMatch links; deciders vs kernels on the whole table; then racing the shared memo, then a 10 s fuzz of decision == score >= threshold)"
go test -short -count=1 -run 'TestSimJoinEqualsScan|TestSimJoinInsertEqualsRechase|TestCalibrationSeesEveryPair|TestSimJoinCountsEveryDecision' ./internal/chase
go test -short -count=1 -run 'TestSimilarityJoinThroughDMatch' ./internal/dmatch
go test -short -count=1 -run 'TestDecidersMatchKernels|TestDecidersSkippedUnderCalibration' ./internal/mlpred
go test -race -short -count=1 -run 'TestSimJoin' ./internal/chase
# -fuzzminimizetime bounds the minimizer: left at its default of 60 s, the
# first interesting input it finds eats the rest of the smoke.
go test -run=NONE -fuzz=FuzzSimDecide -fuzztime=10s -fuzzminimizetime=100x ./internal/mlpred

echo "== MRL round trip (10 s fuzz: Parse never panics, and every rule it accepts re-parses from its String to the same String)"
go test -run=NONE -fuzz=FuzzRuleRoundTrip -fuzztime=10s -fuzzminimizetime=100x ./internal/rule

echo "== doctor bundle loader (10 s fuzz: LoadBundle then Diagnose over fuzzed manifest and health JSON return an error or a diagnosis, never a panic)"
go test -run=NONE -fuzz=FuzzLoadBundle -fuzztime=10s -fuzzminimizetime=100x ./internal/health

echo "== allocation-regression guards (index/cache probes, string metrics, saturated enumeration, HyPart per-block not per-tuple; postings, index slots, key maps and the row table hold no pointers, and a Tuple handle is 24 bytes)"
go test -count=1 -run 'TestIndexProbeAllocs|TestMetricAllocs|TestCacheProbeAllocs|TestEnumerationAllocs|TestPartitionAllocs|TestStorageHoldsNoPointers|TestTupleHandleSize' \
    ./internal/relation ./internal/mlpred ./internal/chase ./internal/hypart

echo "== storage equivalence guards (columnar parity + golden Gamma fact sequences and class sets of Run and of inserts)"
go test -short -count=1 -run 'TestStorageParity|TestGammaGoldenDigest' \
    ./internal/relation ./internal/chase

echo "== bench smoke (IncDeduce and InsertTuples at the -short scale incl. their full-chase asserts + HyPart incl. the Partition equivalence assert, 1 iteration)"
go test -run=NONE -bench='IncDeduce|InsertTuples|HyPart' -benchtime=1x -short . | tee /tmp/dcer_ci_smoke.txt
grep -q '^BenchmarkIncDeduce/default' /tmp/dcer_ci_smoke.txt
grep -q '^BenchmarkInsertTuples/default' /tmp/dcer_ci_smoke.txt

echo "== storage bench smoke (ingest arm at scale 20, single iteration)"
go test -run=NONE -bench 'Storage/ingest' -benchtime=1x .

echo "== causal-trace race guard (trace model, wide events, DMatch lane attribution, the live /metrics + /debug/dcer + /debug/trace + /debug/health scrape of a monitored DMatch run, and cmd/doctor scraping a live endpoint, under the race detector)"
go test -race -short -count=1 \
    -run 'TestParallelTraceCausality|TestSpanLabelCopy|TestTraceContextCausality|TestWriteChromeTrace|TestServeDebugTrace|TestLoggerWide|TestLiveTelemetryEndpoints|TestDoctorScrapesLiveEndpoint' \
    ./internal/telemetry ./internal/dmatch ./cmd/doctor

echo "== bench-regression gate (fresh DeduceParallel/IncDeduce/InsertTuples/LoadDir vs BENCH_GATE.txt, min of 3, threshold 25%)"
# Measure the gated benchmarks fresh (the min over -count 3 suppresses
# scheduler noise on the shared host; -cpu 2 is the width BENCH_GATE.txt
# was taken at) and fail when any slowed past the threshold vs the
# committed baseline. BENCH_GATE.txt holds, per gated benchmark, the median
# of seven such min-of-3 runs of one tree: the tree before each rule's join
# order was planned statically, whose own lines (taken before the task
# pool and the chunk-parallel ingest, on a faster host) it failed by up to
# 4x. Its seven runs read DeduceParallel/sequential 287-376 ms (median
# 348.3), /concurrent 197-254 (220.3), IncDeduce/sequential 40.9-53.3
# (46.4), IncDeduce/default 38.9-54.5 (42.3), InsertTuples/default
# 278-348 (321.9), /sequential 295-463 (382.7) and LoadDir 53-116 (58.2).
# 25 % over the medians — the bound BENCHMARK.json puts on its timing
# metrics for the same reason — fails above 435 / 275 / 58 / 53 / 402 /
# 478 / 73 ms. The host swings that wide between runs of one tree: re-run
# before believing a failure. IncDeduce/default times the drain's batches
# fanned out over both cores, IncDeduce/sequential the same batches on one
# goroutine.
go test -run=NONE -bench '^Benchmark(DeduceParallel|IncDeduce|InsertTuples|LoadDir)$' -count 3 -cpu 2 . | tee /tmp/dcer_ci_gate.txt
# The gate gates: the fresh output passes against itself, and fails against
# a baseline that claims every benchmark once ran twice as fast.
go run ./scripts/benchgate /tmp/dcer_ci_gate.txt /tmp/dcer_ci_gate.txt > /dev/null
awk '{ for (i = 2; i <= NF; i++) if ($i == "ns/op") $(i-1) /= 2; print }' /tmp/dcer_ci_gate.txt > /tmp/dcer_ci_gate_halved.txt
if go run ./scripts/benchgate /tmp/dcer_ci_gate_halved.txt /tmp/dcer_ci_gate.txt > /dev/null 2>&1; then
    echo "benchgate passed a run twice as slow as its baseline" >&2
    exit 1
fi
go run ./scripts/benchgate BENCH_GATE.txt /tmp/dcer_ci_gate.txt

echo "== repository benchmark module (nested module, invisible to the root ./...: vet + every workload at tiny scale)"
go -C benchmark vet ./...
go -C benchmark test ./...

echo "CI OK"
