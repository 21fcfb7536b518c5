// Package dmatch implements the parallel algorithm DMatch of Section V-B:
// the BSP fixpoint model of Section III-B over fragments produced by
// HyPart. Each worker runs the sequential chase engine on its fragment —
// partial evaluation A (Deduce) in the first superstep, incremental A_Δ
// (IncDeduce) afterwards — and a master routes newly deduced matches and
// validated ML predictions to the workers hosting either tuple. No raw
// tuples are ever exchanged after partitioning, only facts.
//
// DMatch is parallelly scalable relative to Match (Theorem 7): work is
// evenly spread by HyPart's virtual blocks + LPT balancing, and the total
// incremental work is bounded by the number of facts, so runtime shrinks
// proportionally as workers are added.
//
// The master's routing is batched: a sequential pass folds each new fact's
// recipient set into a worker bitset (classes carry their host bitsets in
// the union-find, so recipients are two bitword ORs, not a member-list
// walk), then per-destination builders — one goroutine per worker — scan
// the route list and assemble each inbox, suppressing any fact the
// destination already received or itself produced (Result.MessagesDeduped).
// When a superstep's skew ratio exceeds Options.RebalanceSkew, the
// scheduler re-runs the LPT assignment over the virtual blocks' observed
// costs and migrates blocks between workers before the next superstep
// (see rebalance.go).
package dmatch

import (
	"runtime"
	"strconv"
	"sync"
	"time"

	"dcer/internal/chase"
	"dcer/internal/fnv"
	"dcer/internal/health"
	"dcer/internal/hypart"
	"dcer/internal/mlpred"
	"dcer/internal/provenance"
	"dcer/internal/relation"
	"dcer/internal/rule"
	"dcer/internal/telemetry"
	"dcer/internal/unionfind"
	"dcer/internal/wire"
)

// Options configures a DMatch run.
type Options struct {
	// Workers is the number n of workers; 0 means GOMAXPROCS.
	Workers int
	// NoMQO disables hash-function sharing in HyPart and index/ML-cache
	// sharing in the per-worker engines (the DMatch_noMQO ablation).
	NoMQO bool
	// MaxDeps is the per-worker dependency-store capacity K (see chase).
	MaxDeps int
	// ReplicationCap bounds HyPart's per-tuple copy factor (see hypart).
	ReplicationCap int
	// PartitionShards is the goroutine fan-out of the HyPart pass (see
	// hypart.Options.Shards); 0 means GOMAXPROCS.
	PartitionShards int
	// MaxSupersteps bounds the BSP loop as a safety net; 0 means 1 << 20.
	MaxSupersteps int
	// Sequential forces the supersteps to run workers one at a time (and
	// each worker's Deduce to enumerate rules sequentially); useful for
	// deterministic debugging and undistorted per-worker timings.
	Sequential bool
	// SequentialDeduce keeps the supersteps parallel across workers but
	// disables the concurrent per-rule first pass inside each worker's
	// Deduce (the pre-intra-parallelism behavior, kept for comparison).
	SequentialDeduce bool
	// SequentialDrain disables the batched parallel drain inside each
	// worker's Deduce/IncDeduce (see chase.Options.SequentialDrain), so
	// every superstep's incremental pass runs single-threaded per worker.
	SequentialDrain bool
	// DrainParallelMin overrides the per-worker parallel-drain batch
	// threshold (see chase.Options.DrainParallelMin); 0 keeps the default.
	DrainParallelMin int
	// InterpretRules disables the compiled predicate plans inside every
	// worker engine (see chase.Options.InterpretRules); the A/B oracle
	// for plan-equivalence runs.
	InterpretRules bool
	// PlanResortMinEvals overrides the per-worker adaptive plan-reorder
	// threshold (see chase.Options.PlanResortMinEvals).
	PlanResortMinEvals int
	// SequentialRoute disables the concurrent per-destination inbox build
	// in the master after each barrier (the routing A/B knob for the
	// benchmarks; the built inboxes are identical either way).
	SequentialRoute bool
	// RebalanceSkew is the per-superstep skew-ratio threshold above which
	// the scheduler re-runs the LPT assignment over the virtual blocks'
	// observed costs and migrates blocks between workers before the next
	// superstep. 0 means the default (1.5); negative disables adaptive
	// rebalancing.
	RebalanceSkew float64
	// MaxRebalances bounds the number of migrations per run (0 means the
	// default of 2; negative disables).
	MaxRebalances int
	// RebalanceMinStepNs is the makespan floor a superstep must reach
	// before its skew can trigger a migration — microsecond-scale steps
	// show large skew ratios that are pure timing noise. 0 means the
	// default (2ms); negative removes the floor (used by tests).
	RebalanceMinStepNs int64
	// Metrics, when non-nil, receives live instrumentation: per-superstep
	// makespan/skew gauges, routing counters, per-worker busy histograms,
	// the partition-size histograms of HyPart, and every worker engine's
	// chase series (labeled worker=i). The in-progress superstep timeline
	// is exposed as the "dmatch_timeline" debug provider and the adaptive
	// migrations as "dmatch_rebalance" (/debug/dcer).
	Metrics *telemetry.Registry
	// Trace parents the run's causal spans: a dmatch.Run root, one
	// dmatch.superstep span per BSP step with each worker's
	// Deduce/IncDeduce as children on the worker's lane, the master's
	// route span with per-destination inbox builds, and rebalance
	// migrations with per-worker rebuild child spans. The zero value
	// disables capture; when Metrics is set and Trace is not, a root is
	// derived from the registry's tracer so a -telemetry run always
	// yields a causal trace (/debug/trace).
	Trace telemetry.TraceContext
	// Log, when non-nil and at debug level, receives wide events: one
	// JSON line per superstep (makespan, skew, routed/deduped counts,
	// rebalance and knob state) plus the per-round lines of every worker
	// engine.
	Log *telemetry.Logger
	// Health attaches the run to a health monitor: a superstep heartbeat
	// for the stall watchdog, a sampled auditor over the master's global
	// union-find (run in the sequential route phase, where it is
	// quiescent), and the same monitor threaded into every worker engine
	// (see chase.Options.Health). When the monitor carries ground truth,
	// the master feeds the accuracy observatory from the globally folded
	// matches — the authoritative estimate, since workers only see their
	// fragments. nil disables the layer.
	Health *health.Monitor
	// Provenance enables justification capture: every worker engine
	// records its derivations into a per-worker log stamped with the
	// worker id and the current superstep, and the logs are stitched into
	// one global log after the fixpoint (Result.Provenance / Result.Proof).
	// Off by default; the disabled cost is one branch per applied fact.
	Provenance bool
	// ProvenanceLimit bounds each worker's log (0 means
	// provenance.DefaultLimit, negative means unbounded).
	ProvenanceLimit int
}

// Result is the outcome of a parallel run.
type Result struct {
	// Matches is the deduplicated set of deduced match facts.
	Matches []chase.Fact
	// Validated is the deduplicated set of validated ML predictions.
	Validated []chase.Fact
	// Eq is the global id-equivalence relation E_id over the dataset.
	Eq *unionfind.UnionFind

	Supersteps     int
	MessagesRouted int64 // facts delivered worker->worker via the master
	// MessagesDeduped counts the deliveries the routing seen-sets
	// suppressed: a fact bound for a worker that already received it in
	// an earlier superstep or produced it itself in this one.
	MessagesDeduped int64
	FactsProduced   int64 // facts reported by workers incl. duplicates
	PartitionStats  hypart.Stats
	PartitionTime   time.Duration
	// BuildTime is the set-up between partitioning and the first
	// superstep: the master's global E_id and host bitsets plus, in
	// process, the worker engines (fragment datasets, rule scopes,
	// compiled plans). Distributed workers build their engines inside
	// their first superstep, so there it is the master's share only —
	// accepting the workers and shipping their assignments included.
	// PartitionTime + BuildTime + ERTime account for the whole run.
	BuildTime time.Duration
	ERTime    time.Duration
	// SimulatedTime is the BSP makespan: per superstep, the maximum
	// compute time over the workers, summed over supersteps. On a
	// machine with fewer cores than workers this — not wall-clock ERTime
	// — is the faithful stand-in for the runtime on a real n-machine
	// cluster (use Options.Sequential for undistorted per-worker
	// timings). The parallel-scalability experiments report it. It is a
	// simulation-only model even under RunDistributed: real measured
	// time lives in the timeline's per-superstep WallNs (and BytesOnWire
	// for the wire), not here.
	SimulatedTime time.Duration
	WorkerStats   []chase.Stats
	// Rebalances lists the skew-adaptive block migrations the scheduler
	// performed (empty when none triggered).
	Rebalances []RebalanceEvent
	// Recoveries lists the worker-failure recoveries of a distributed run
	// (always empty in-process).
	Recoveries []RecoveryEvent
	// Wire is the wire-protocol measurement of a distributed run — bytes,
	// frames, codec time, and dictionary economics over every worker
	// connection. Zero in-process, where no bytes move.
	Wire wire.Snapshot

	timeline Timeline
	prov     *provenance.Log
	d        *relation.Dataset
}

// Provenance returns the merged cross-worker justification log of the run
// (nil when Options.Provenance was off): the per-worker logs stitched in
// (superstep, worker, sequence) order, with each routed fact's arrival
// record displaced by the originating worker's derivation.
func (r *Result) Provenance() *provenance.Log { return r.prov }

// Proof extracts a justification of the pair (a, b) from the merged log —
// including proofs whose derivation chain crosses workers. It returns
// provenance.ErrNotEntailed for unmatched pairs and
// provenance.ErrIncomplete when capture was off or a log overflowed.
func (r *Result) Proof(a, b relation.TID) ([]provenance.Entry, error) {
	return r.prov.Proof([2]relation.TID{a, b}, chase.BuildEquivalence(r.d, nil))
}

// Timeline returns the BSP superstep profile of the run: per-worker
// busy/idle time, routed message counts, and skew, one entry per
// superstep. Always recorded (the cost is bounded by supersteps×workers).
func (r *Result) Timeline() *Timeline { return &r.timeline }

// Same reports whether two tuples are matched in the global Γ.
func (r *Result) Same(a, b relation.TID) bool {
	return a == b || r.Eq.Same(int(a), int(b))
}

// Classes returns the non-singleton global equivalence classes.
func (r *Result) Classes() [][]relation.TID {
	groups := make(map[int][]relation.TID)
	for _, t := range r.d.Tuples() {
		root := r.Eq.Find(int(t.GID))
		groups[root] = append(groups[root], t.GID)
	}
	var out [][]relation.TID
	for _, g := range groups {
		if len(g) > 1 {
			out = append(out, g)
		}
	}
	return out
}

// scopeKey fingerprints a sorted id list for scope deduplication with
// 64-bit FNV-1a — no per-id string building. Callers confirm candidate
// hits with sameIDs, so a hash collision costs a duplicate scope dataset,
// never a wrong one.
func scopeKey(ids []relation.TID) uint64 {
	h := uint64(fnv.Offset64)
	h = fnv.Uint64(h, uint64(len(ids)))
	for _, id := range ids {
		h = fnv.Uint64(h, uint64(id))
	}
	return h
}

// sameIDs reports whether two sorted id lists are identical.
func sameIDs(a, b []relation.TID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// factRoute is one routable fact of a superstep with its recipient bitset
// (an offset into the route arena, so arena growth never invalidates it).
type factRoute struct {
	f    chase.Fact
	from int
	off  int
}

// Run partitions d with HyPart and executes the BSP fixpoint with n
// workers.
func Run(d *relation.Dataset, rules []*rule.Rule, reg *mlpred.Registry, opts Options) (*Result, error) {
	n := opts.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	maxSteps := opts.MaxSupersteps
	if maxSteps <= 0 {
		maxSteps = 1 << 20
	}

	tc := opts.Trace
	if !tc.Enabled() && opts.Metrics != nil {
		tc = opts.Metrics.Tracer().NewTrace(telemetry.PIDDMatch, 0)
	}
	runSpan := tc.Start("dmatch.Run", telemetry.L("workers", strconv.Itoa(n)))
	defer runSpan.End()
	rtc := runSpan.Context()

	t0 := time.Now()
	part, err := hypart.Partition(d, rules, n, hypart.Options{
		Share:          !opts.NoMQO,
		ReplicationCap: opts.ReplicationCap,
		Shards:         opts.PartitionShards,
		Metrics:        opts.Metrics,
		Trace:          rtc,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{PartitionStats: part.Stats, d: d}
	tb := time.Now()
	res.PartitionTime = tb.Sub(t0)
	ms := newMasterState(d, n)

	// buildWorker constructs one chase engine over a fragment via the
	// shared builder (see master.go), layering this run's observability
	// hooks on top. The adaptive rebalancer re-invokes it when a
	// migration changes a worker's block set.
	var provLogs []*provenance.Log
	if opts.Provenance {
		provLogs = make([]*provenance.Log, n)
		for i := range provLogs {
			provLogs[i] = provenance.NewLog(opts.ProvenanceLimit)
			provLogs[i].SetWorker(i)
		}
	}
	buildWorker := func(i int, frag []relation.TID, ruleFrags [][]relation.TID) (*chase.Engine, error) {
		copts := workerChaseOptions(opts, ms.idSpace)
		copts.Metrics = opts.Metrics
		copts.MetricsLabels = []telemetry.Label{telemetry.L("worker", strconv.Itoa(i))}
		copts.Trace = rtc.Lane(telemetry.PIDDMatch, int32(i+1))
		copts.Log = opts.Log
		copts.Health = opts.Health
		if provLogs != nil {
			copts.Provenance = provLogs[i]
		}
		return buildWorkerEngine(d, rules, reg, i, frag, ruleFrags, copts)
	}

	workers := make([]*chase.Engine, n)
	ms.setHosts(part.Fragments)
	for i, frag := range part.Fragments {
		eng, err := buildWorker(i, frag, part.RuleFragments[i])
		if err != nil {
			return nil, err
		}
		workers[i] = eng
	}
	t1 := time.Now()
	res.BuildTime = t1.Sub(tb)

	// The global E_id with per-class-root host bitsets, the delivery
	// seen-sets, and the route scratch all live in ms (master.go) — the
	// same state machine RunDistributed drives over the wire.
	inboxes := make([][]chase.Fact, n)
	deltas := make([][]chase.Fact, n)
	freshW := make([]bool, n) // rebuilt by a migration; must re-Deduce

	// BSP instruments. Every instrument is a no-op when opts.Metrics is
	// nil (nil-safe telemetry handles), so the loop below reads the same
	// either way; the superstep timeline itself is recorded
	// unconditionally (its cost is bounded by supersteps × workers).
	tl := &res.timeline
	tl.Workers = n
	var tlMu sync.Mutex
	mreg := opts.Metrics
	stepGauge := mreg.Gauge("dcer_dmatch_superstep")
	makespanGauge := mreg.Gauge("dcer_dmatch_step_makespan_ns")
	skewGauge := mreg.Gauge("dcer_dmatch_step_skew")
	routedCtr := mreg.Counter("dcer_dmatch_messages_routed")
	dedupCtr := mreg.Counter("dcer_dmatch_messages_deduped")
	factsCtr := mreg.Counter("dcer_dmatch_facts_produced")
	rebalCtr := mreg.Counter("dcer_dmatch_rebalances")
	movedCtr := mreg.Counter("dcer_dmatch_blocks_moved")
	routeHist := mreg.Histogram("dcer_dmatch_route_ns")
	busyHists := make([]*telemetry.Histogram, n)
	for i := range busyHists {
		busyHists[i] = mreg.Histogram("dcer_dmatch_worker_busy_ns", telemetry.L("worker", strconv.Itoa(i)))
	}
	mreg.SetDebug("dmatch_timeline", func() any {
		tlMu.Lock()
		defer tlMu.Unlock()
		return Timeline{Workers: tl.Workers, Steps: append([]Superstep(nil), tl.Steps...)}
	})
	mreg.SetDebug("dmatch_rebalance", func() any {
		tlMu.Lock()
		defer tlMu.Unlock()
		return append([]RebalanceEvent(nil), res.Rebalances...)
	})
	if provLogs != nil {
		// Replace the per-engine providers registered by the worker
		// engines with the aggregate view over all worker logs.
		mreg.SetDebug("provenance", func() any { return provenance.Summarize(provLogs...) })
	}

	elapsed := make([]time.Duration, n)
	runStep := func(step int, stc telemetry.TraceContext) {
		runOne := func(i int) {
			if stc.Enabled() {
				// Re-parent the worker's engine under this superstep, on
				// the worker's lane, so its Deduce/IncDeduce roots (and
				// their drain rounds) render as this step's children. The
				// engine is quiescent here — only this goroutine drives it.
				workers[i].SetTraceContext(stc.Lane(telemetry.PIDDMatch, int32(i+1)))
			}
			start := time.Now()
			if step == 0 || freshW[i] {
				// First superstep, or a worker the rebalancer rebuilt:
				// full partial evaluation over the (new) fragment, then
				// the replayed/pending inbox through A_Δ.
				delta := workers[i].Deduce()
				if len(inboxes[i]) > 0 {
					delta = append(delta, workers[i].IncDeduce(inboxes[i])...)
				}
				deltas[i] = delta
				freshW[i] = false
			} else {
				deltas[i] = workers[i].IncDeduce(inboxes[i])
			}
			elapsed[i] = time.Since(start)
		}
		skip := func(i int) bool {
			return step > 0 && len(inboxes[i]) == 0 && !freshW[i]
		}
		if opts.Sequential {
			for i := range workers {
				if skip(i) {
					deltas[i] = nil
					elapsed[i] = 0
					continue
				}
				runOne(i)
			}
			return
		}
		var wg sync.WaitGroup
		for i := range workers {
			if skip(i) {
				deltas[i] = nil
				elapsed[i] = 0
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				runOne(i)
			}(i)
		}
		wg.Wait()
	}

	rb := newRebalancer(opts, n, len(part.Blocks))
	curAssign := make([]int, len(part.Blocks))
	for i := range part.Blocks {
		curAssign[i] = part.Blocks[i].Worker
	}

	msgsIn := make([]int, n)
	factsOut := make([]int, n)
	// Health wiring: the superstep heartbeat brackets the whole BSP loop,
	// and the master's sequential route phase audits the global
	// union-find and feeds the accuracy observatory (nil-safe no-ops when
	// no monitor is attached).
	var dhb *health.Heartbeat
	var gufCheck *health.Check
	if opts.Health != nil {
		dhb = opts.Health.Heartbeat("dmatch_superstep")
		gufCheck = opts.Health.Check("global_unionfind")
		dhb.Enter()
		defer dhb.Exit()
	}
	accSeen := 0
	for step := 0; step < maxSteps; step++ {
		dhb.Beat()
		stepWall := time.Now()
		var ssp telemetry.Span
		stc := rtc
		if rtc.Enabled() {
			ssp = rtc.Start("dmatch.superstep", telemetry.L("step", strconv.Itoa(step)))
			stc = ssp.Context()
		}
		for i := range inboxes {
			msgsIn[i] = len(inboxes[i])
		}
		for _, l := range provLogs {
			l.SetStep(step)
		}
		runStep(step, stc)
		res.Supersteps++
		var stepMax time.Duration
		for _, e := range elapsed {
			if e > stepMax {
				stepMax = e
			}
		}
		res.SimulatedTime += stepMax
		stepGauge.Set(float64(step))
		makespanGauge.Set(float64(stepMax))
		for i, e := range elapsed {
			busyHists[i].Observe(uint64(e))
		}
		routeStart := time.Now()
		var rsp telemetry.Span
		routeTC := stc
		if stc.Enabled() {
			rsp = stc.Start("dmatch.route")
			routeTC = rsp.Context()
		}
		// Master, phase 1 (sequential): fold the union of the workers'
		// new facts into the global Γ and compute each fact's recipient
		// bitset — the workers hosting any member of the classes the fact
		// touches (the ΔΓ_i of the fixpoint equations). Fold order is
		// worker-index order; the deterministic Γ depends on it.
		ms.beginFold()
		var stepFacts int64
		for w, delta := range deltas {
			stepFacts += int64(len(delta))
			res.FactsProduced += int64(len(delta))
			ms.foldDelta(w, delta, res)
		}
		if opts.Health != nil {
			// Still in the sequential master phase: guf is quiescent, so
			// the sampled chain audit needs no locks; Find's path
			// compression is the master's own mutation, as in the fold.
			sample := health.SampleIDs(ms.guf.Len(), opts.Health.SampleSize(), opts.Health.Seed()+int64(step))
			if err := health.AuditUnionFind(ms.guf, sample); err != nil {
				gufCheck.Fail(len(sample), "superstep %d: %v", step, err)
			} else {
				gufCheck.Pass(len(sample))
			}
			if acc := opts.Health.Accuracy(); acc != nil {
				accSeen = observeMasterAccuracy(acc, res.Matches, accSeen, provLogs, ms.guf)
			}
		}
		// Master, phase 2 (parallel): per-destination inbox builders.
		// Each builder owns its destination's inbox, seen-set, and
		// counters, so the fan-out is race-free and the built batches
		// are identical to a sequential build.
		next := make([][]chase.Fact, n)
		stepRouted := make([]int64, n)
		stepDeduped := make([]int64, n)
		buildDest := func(h int) {
			var isp telemetry.Span
			if routeTC.Enabled() {
				isp = routeTC.Lane(telemetry.PIDDMatch, int32(h+1)).Start("dmatch.inbox")
				defer isp.End()
			}
			next[h], stepRouted[h], stepDeduped[h] = ms.buildDest(h, deltas[h])
		}
		if opts.Sequential || opts.SequentialRoute || len(ms.routes) == 0 {
			for h := 0; h < n; h++ {
				buildDest(h)
			}
		} else {
			var wg sync.WaitGroup
			for h := 0; h < n; h++ {
				wg.Add(1)
				go func(h int) {
					defer wg.Done()
					buildDest(h)
				}(h)
			}
			wg.Wait()
		}
		var routedStep, dedupedStep int64
		for h := 0; h < n; h++ {
			routedStep += stepRouted[h]
			dedupedStep += stepDeduped[h]
		}
		res.MessagesRouted += routedStep
		res.MessagesDeduped += dedupedStep
		inboxes = next
		rsp.End()
		routeNs := int64(time.Since(routeStart))
		routeHist.Observe(uint64(routeNs))
		routedCtr.Add(routedStep)
		dedupCtr.Add(dedupedStep)
		factsCtr.Add(stepFacts)
		for i, dl := range deltas {
			factsOut[i] = len(dl)
		}
		tlMu.Lock()
		tl.record(step, elapsed, factsOut, msgsIn, routeNs, int64(time.Since(stepWall)), 0, routedStep, dedupedStep)
		ss := &tl.Steps[len(tl.Steps)-1]
		skew := ss.SkewRatio
		if len(res.Rebalances) > 0 {
			last := &res.Rebalances[len(res.Rebalances)-1]
			if last.Step == step-1 && last.SkewAfter == 0 {
				last.SkewAfter = skew
			}
		}
		tlMu.Unlock()
		skewGauge.Set(skew)
		if opts.Log.Level() <= telemetry.LogDebug {
			opts.Log.Wide(telemetry.LogDebug, "dmatch_superstep",
				telemetry.F{K: "step", V: step},
				telemetry.F{K: "workers", V: n},
				telemetry.F{K: "makespan_ns", V: int64(stepMax)},
				telemetry.F{K: "skew", V: skew},
				telemetry.F{K: "facts", V: stepFacts},
				telemetry.F{K: "routed", V: routedStep},
				telemetry.F{K: "deduped", V: dedupedStep},
				telemetry.F{K: "route_ns", V: routeNs},
				telemetry.F{K: "rebalances", V: len(res.Rebalances)},
				telemetry.F{K: "plan_on", V: !opts.InterpretRules},
				telemetry.F{K: "sequential", V: opts.Sequential},
			)
		}
		ssp.End()
		empty := true
		for _, in := range inboxes {
			if len(in) > 0 {
				empty = false
				break
			}
		}
		if empty {
			break
		}
		// Skew-adaptive scheduling: with work still pending and this
		// superstep over the skew threshold, re-run LPT over the blocks'
		// observed costs and migrate blocks before the next superstep.
		if rb.shouldRebalance(skew, stepMax) {
			t0 := time.Now()
			var rbsp telemetry.Span
			rbtc := rtc
			if rtc.Enabled() {
				rbsp = rtc.Start("dmatch.rebalance", telemetry.L("step", strconv.Itoa(step)))
				rbtc = rbsp.Context()
			}
			newAssign, moved := rb.reassign(part.Blocks, curAssign, elapsed)
			if moved > 0 {
				changed := make([]bool, n)
				for b := range newAssign {
					if newAssign[b] != curAssign[b] {
						changed[newAssign[b]] = true
						changed[curAssign[b]] = true
					}
				}
				frags, ruleFrags := hypart.BuildFragments(part.Blocks, newAssign, n, len(rules))
				rebuilt := 0
				for w := range workers {
					if !changed[w] {
						continue
					}
					var wsp telemetry.Span
					if rbtc.Enabled() {
						// One migration child span per rebuilt worker, on
						// the worker's lane.
						wsp = rbtc.Lane(telemetry.PIDDMatch, int32(w+1)).Start("dmatch.rebuild.worker")
					}
					eng, err := buildWorker(w, frags[w], ruleFrags[w])
					if err != nil {
						return nil, err
					}
					workers[w] = eng
					freshW[w] = true
					rebuilt++
					wsp.End()
				}
				ms.setHosts(frags)
				curAssign = newAssign
				// A rebuilt worker re-runs Deduce over its new fragment
				// and replays the global fact history (see replayFor).
				for w := range workers {
					if !changed[w] {
						continue
					}
					replay := ms.replayFor(w, res)
					ms.resetWorker(w, replay)
					inboxes[w] = replay
				}
				ev := RebalanceEvent{
					Step:           step,
					BlocksMoved:    moved,
					WorkersRebuilt: rebuilt,
					SkewBefore:     skew,
					RebuildNs:      int64(time.Since(t0)),
				}
				tlMu.Lock()
				res.Rebalances = append(res.Rebalances, ev)
				tlMu.Unlock()
				rebalCtr.Add(1)
				movedCtr.Add(int64(moved))
			}
			rbsp.End()
		}
	}
	res.ERTime = time.Since(t1)
	res.Eq = ms.guf
	for _, w := range workers {
		res.WorkerStats = append(res.WorkerStats, w.Stats())
	}
	if provLogs != nil {
		res.prov = provenance.Merge(provLogs...)
	}
	return res, nil
}
