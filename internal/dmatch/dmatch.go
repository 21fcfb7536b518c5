// Package dmatch implements the parallel algorithm DMatch of Section V-B:
// the BSP fixpoint model of Section III-B over a HyPart partition. A
// worker owns the cells of every rule's hypercube that lie in its virtual
// blocks, and runs the sequential chase engine over the whole dataset
// enumerating only the valuations in those cells (chase.NewScoped):
// partial evaluation A (Deduce) in its first superstep, incremental A_Δ
// (IncDeduce) afterwards. Each valuation lies in exactly one cell, so no
// two workers enumerate or classify the same one. A master routes newly
// deduced matches and validated ML predictions to the workers hosting
// either tuple — owning a cell it lies in (hypart.Result.Hosts) — and
// every tuple a worker binds it hosts. No raw tuples are ever exchanged after
// partitioning, only facts; an Assign carries the cubes' extents and the
// worker's owned-cell bitmaps.
//
// DMatch is parallelly scalable relative to Match (Theorem 7): work is
// evenly spread by HyPart's virtual blocks + LPT balancing, and the total
// incremental work is bounded by the number of facts, so runtime shrinks
// proportionally as workers are added.
//
// There is one DMatch. The master's superstep loop (loop.go) speaks the
// wire protocol's Assign / Step / Done to each worker through a link and
// gets Delta, final stats or the worker's death back (link.go); the worker
// half (worker.go) executes those messages against its engine. Run puts
// the workers behind loopback links — goroutines handed the decoded
// message structs — and RunDistributed behind TCP links to processes
// running RunWorker; nothing else differs, so both return the same Γ.
//
// The master's routing is batched: a sequential pass folds each new fact's
// recipient set into a worker bitset (classes carry their host bitsets in
// the union-find, so recipients are two bitword ORs, not a member-list
// walk), then per-destination builders — one goroutine per worker — scan
// the route list and assemble each inbox, suppressing any fact the
// destination itself produced in the same superstep
// (Result.MessagesDeduped).
// Blocks stay where HyPart's LPT put them until a worker dies: then the
// master hands the dead worker's blocks to the survivors, and those that
// adopt one rebuild and replay the fact history (masterState.reassign).
package dmatch

import (
	"errors"
	"runtime"
	"strconv"
	"sync"
	"time"

	"dcer/internal/chase"
	"dcer/internal/hypart"
	"dcer/internal/mlpred"
	"dcer/internal/provenance"
	"dcer/internal/relation"
	"dcer/internal/rule"
	"dcer/internal/telemetry"
	"dcer/internal/unionfind"
	"dcer/internal/wire"
)

// Options configures a DMatch run. Every field means the same under Run
// and RunDistributed, with two exceptions: Provenance is rejected by
// RunDistributed, and the engine-level observers Metrics carries (the
// per-worker chase series, spans, round events and engine auditors) reach
// only workers in the master's process.
type Options struct {
	// Workers is the number n of workers; 0 means GOMAXPROCS.
	Workers int
	// NoMQO disables hash-function sharing in HyPart and index/ML-cache
	// sharing in the per-worker engines (the DMatch_noMQO ablation).
	NoMQO bool
	// Sequential forces the supersteps to run workers one at a time (the
	// master waits for each worker's delta before it starts the next) and
	// the master to build the inboxes one after another, so per-worker busy
	// times do not overlap (the simulated makespan of internal/experiments
	// rests on this). Each worker's engine still runs its pool at the full
	// GOMAXPROCS width while its peers wait.
	Sequential bool
	// RebalanceSkew must be 0 or negative: DMatch never migrates blocks
	// between live workers, and a positive value is an error before any
	// worker starts. The field stays for callers that switch it off.
	RebalanceSkew float64
	// Metrics is the run's one observability handle, which every
	// in-process worker engine attaches to as well (chase.Options.Metrics,
	// labeled worker=i). From it the run takes: live instrumentation
	// (per-superstep makespan/skew gauges, routing counters, per-worker
	// busy and HyPart partition-size histograms, the "dmatch_timeline"
	// debug provider); causal spans on its tracer (a dmatch.Run root, one
	// dmatch.superstep span per BSP step with each in-process worker's
	// Deduce/IncDeduce on the worker's lane, the route and per-destination
	// inbox spans, one reassign span per recovery); at debug level of its
	// logger, one wide event per superstep; and, when a health monitor is
	// attached to it (health.Of), a superstep heartbeat, a sampled auditor
	// over the master's global union-find in the quiescent fold phase, a
	// "dist_workers" check that fails when a worker dies, and — with
	// ground truth — the accuracy observatory fed from the globally folded
	// matches. nil disables all of it.
	Metrics *telemetry.Registry
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
	// MessagesDeduped counts the deliveries the routing suppressed: a
	// fact bound for a worker that produced it itself in the same
	// superstep. A fact is routed at most once in a run, so no worker is
	// sent one it already received.
	MessagesDeduped int64
	FactsProduced   int64 // facts reported by workers incl. duplicates
	PartitionStats  hypart.Stats
	PartitionTime   time.Duration
	// BuildTime is the master's set-up between partitioning and the first
	// superstep: the global E_id, the host bitsets and the links —
	// accepting the worker processes included when distributed. The
	// workers build their engines (cell cuts, compiled plans) when their
	// Assign arrives, concurrently, inside their first superstep.
	// PartitionTime + BuildTime + ERTime account for the whole run.
	BuildTime time.Duration
	ERTime    time.Duration
	// WorkerStats[w] sums the work counters over every engine slot w ran
	// (a reassignment replaces the engine); a dead worker's are zero.
	WorkerStats []chase.Stats
	// Rebalances is always empty: blocks move only off a dead worker
	// (Recoveries). It stays for callers that read its length.
	Rebalances []RebalanceEvent
	// Recoveries lists the worker-failure recoveries of the run (a worker
	// in the master's process dies only if its engine cannot be built).
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
	return r.prov.Proof([2]relation.TID{a, b}, chase.BuildEquivalence(r.d))
}

// Timeline returns the BSP superstep profile of the run: per-worker
// busy/idle time, routed message counts, and skew, one entry per
// superstep. Always recorded (the cost is bounded by supersteps×workers).
func (r *Result) Timeline() *Timeline { return &r.timeline }

// Same reports whether two tuples are matched in the global Γ.
func (r *Result) Same(a, b relation.TID) bool {
	return a == b || r.Eq.Same(int(a), int(b))
}

// Classes returns the non-singleton global equivalence classes, ordered
// by root, each listing its tuples in dataset order: a count per root,
// then each multi-member class cut from one backing array and filled.
func (r *Result) Classes() [][]relation.TID {
	ts := r.d.Tuples()
	at := make([]int32, r.Eq.Len()) // per root: its size, then 1 + its class's index
	for _, t := range ts {
		at[r.Eq.Find(int(t.GID))]++
	}
	var out [][]relation.TID
	flat := make([]relation.TID, len(ts))
	for root, n := range at {
		at[root] = 0
		if n > 1 {
			out = append(out, flat[:0:n])
			flat = flat[n:]
			at[root] = int32(len(out))
		}
	}
	for _, t := range ts {
		if c := at[r.Eq.Find(int(t.GID))]; c != 0 {
			out[c-1] = append(out[c-1], t.GID)
		}
	}
	return out
}

// RebalanceEvent is the element type of Result.Rebalances, which is
// always empty; it holds nothing.
type RebalanceEvent struct{}

// errRebalanceSkew refuses a positive Options.RebalanceSkew.
var errRebalanceSkew = errors.New("dmatch: skew rebalancing is not supported; RebalanceSkew must be 0 or negative")

// factRoute is one routable fact of a superstep with its recipient bitset
// (an offset into the route arena, so arena growth never invalidates it).
type factRoute struct {
	f    chase.Fact
	from int
	off  int
}

// Run partitions d with HyPart and executes the BSP fixpoint with n
// workers running as goroutines of this process behind loopback links.
func Run(d *relation.Dataset, rules []*rule.Rule, reg *mlpred.Registry, opts Options) (*Result, error) {
	if opts.RebalanceSkew > 0 {
		return nil, errRebalanceSkew
	}
	n := opts.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	var provLogs []*provenance.Log
	if opts.Provenance {
		provLogs = make([]*provenance.Log, n)
		for i := range provLogs {
			provLogs[i] = provenance.NewLog(opts.ProvenanceLimit)
			provLogs[i].SetWorker(i)
		}
	}
	res, err := run(d, rules, opts, n, provLogs, func(ms *masterState) error {
		building := new(sync.WaitGroup)
		ix := relation.NewIndexSet(d) // one for every worker of the process
		for i := range ms.links {
			hooks := chase.Options{
				Metrics:       opts.Metrics,
				MetricsLabels: []telemetry.Label{telemetry.L("worker", strconv.Itoa(i))},
			}
			if provLogs != nil {
				hooks.Provenance = provLogs[i]
			}
			w := &worker{id: i, d: d, rules: rules, reg: reg, ix: ix, cubes: ms.part.Cubes, hooks: hooks}
			ms.links[i] = newLoopLink(w, building, ms.events)
		}
		return nil
	})
	if err == nil && provLogs != nil {
		res.prov = provenance.Merge(provLogs...)
	}
	return res, err
}

// run is DMatch: partition, connect one link per worker slot, drive the
// supersteps to the fixpoint, collect the workers' stats. Run and
// RunDistributed differ only in the links connect puts into ms.links.
func run(d *relation.Dataset, rules []*rule.Rule, opts Options, n int, provLogs []*provenance.Log,
	connect func(ms *masterState) error) (*Result, error) {
	tc := opts.Metrics.Tracer().NewTrace(telemetry.PIDDMatch, 0)
	runSpan := tc.Start("dmatch.Run", telemetry.L("workers", strconv.Itoa(n)))
	defer runSpan.End()
	rtc := runSpan.Context()

	t0 := time.Now()
	part, err := hypart.Partition(d, rules, n, hypart.Options{
		Share:   !opts.NoMQO,
		Metrics: opts.Metrics,
		Trace:   rtc,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{PartitionStats: part.Stats, d: d}
	tb := time.Now()
	res.PartitionTime = tb.Sub(t0)
	ms := newMasterState(d, part, n, opts.NoMQO)
	defer func() { // on the error paths; a finished run has dropped them all
		for w := range ms.links {
			ms.drop(w)
		}
	}()
	if err := connect(ms); err != nil {
		return nil, err
	}
	t1 := time.Now()
	res.BuildTime = t1.Sub(tb)
	if err := ms.fixpoint(opts, rtc, res, provLogs); err != nil {
		return nil, err
	}
	res.WorkerStats = ms.shutdown()
	res.ERTime = time.Since(t1)
	res.Eq = ms.guf
	res.Wire = ms.wire.Snapshot()
	return res, nil
}
