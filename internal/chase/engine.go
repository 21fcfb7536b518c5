package chase

import (
	"fmt"
	"strings"
	"time"

	"dcer/internal/hypart"
	"dcer/internal/mlpred"
	"dcer/internal/provenance"
	"dcer/internal/relation"
	"dcer/internal/rule"
	"dcer/internal/telemetry"
	"dcer/internal/unionfind"
)

// Options configures the engine.
type Options struct {
	// ShareIndexes enables MQO-style sharing of inverted indexes and the
	// ML stores (feature bundles, memoized opaque answers) across rules.
	// Disabling it reproduces the DMatch_noMQO ablation: every rule
	// rebuilds its own indexes and ML stores, so no intermediate results
	// are shared.
	ShareIndexes bool
	// Metrics attaches the engine to a telemetry registry, its one
	// observability handle: per-rule enumeration histograms and gauge
	// views over the Stats counters (so /metrics and Stats() agree);
	// causal spans on the registry's tracer (Deduce / IncDeduce roots,
	// enumerate, merge, drain round and batch spans,
	// slow classifier calls); at debug level of the registry's logger, one
	// wide event per drain round with the engine's knob state; and, when a
	// health monitor is attached to the registry (health.Of), a drain
	// heartbeat plus sampled invariant auditors at quiesced round
	// boundaries and the live accuracy observatory. nil disables all of
	// it at one branch per instrumented site.
	Metrics *telemetry.Registry
	// MetricsLabels is attached to every series the engine registers
	// (the parallel engine labels each worker's engine with its id).
	MetricsLabels []telemetry.Label
	// Provenance, when non-nil, receives one justification entry per fact
	// the engine adds to Γ: the rule and valuation, the prerequisite facts
	// consumed, and the ML predicate outcomes relied on. Same discipline
	// as Metrics — nil disables capture and the disabled cost is one
	// branch per applied fact, nothing on the valuation hot path. The
	// parallel engine passes each worker a log stamped with its id.
	Provenance *provenance.Log
}

// Stats is a point-in-time snapshot of the engine's work counters, for
// the efficiency experiments. The counters live in atomics, so a snapshot
// may be taken while a drain is in flight; the enumeration contexts fold
// their valuation, plan and ML counts in at their merge points (the end of
// a rule enumeration or drain batch), so mid-run those trail the work by
// at most the enumerations in flight. When Options.Metrics is set the same
// counters back the registry's gauge series, so Stats() and /metrics
// cannot disagree.
type Stats struct {
	Valuations   int64 // complete valuations inspected (emit calls)
	Extensions   int64 // partial-binding extension steps
	PlanPreds    int64 // compiled-plan predicate evaluations (per candidate per step)
	PlanBatches  int64 // compiled-plan candidate batches filtered
	MatchesFound int64 // non-trivial id matches deduced
	MLValidated  int64 // ML predictions validated by rule heads
	// DepsRecorded, DepsFired and DepsDropped counted the dependencies of
	// the paper's store H. They read 0 since H was retired: the
	// update-driven drain re-inspects every valuation a new fact touches,
	// so no valuation is parked. They stay for readers of old reports.
	DepsRecorded int64
	DepsFired    int64
	DepsDropped  int64
	Rounds       int64 // internal incremental rounds
	// IndexBuilds counts the inverted indexes this engine built. An index
	// of a set shared across engines (NewScoped) is credited once, to the
	// engine whose bind or probe built it, so the engines of one process
	// sum to the indexes built in it.
	IndexBuilds int
	// SymmetricRules counts the rules enumerated under symmetry reduction:
	// each is its own mirror image (rule.Symmetry), so of every valuation
	// and its mirror twin only one is inspected.
	SymmetricRules int
	MLCacheHits    int64 // opaque-classifier answers served from the pair cache
	MLCacheMiss    int64 // classifier decisions taken: feature-scored calls (a similarity join's, one per value scored, included) + pair-cache misses
	MLCacheSize    int   // memoized (opaque classifier, pair) answers retained
	FeatHits       int64 // feature-store lookups served from the store
	FeatMisses     int64 // feature bundles computed (one per retained bundle)
	FeatEntries    int   // (tuple, attr-list) feature bundles retained
}

// Add folds o's work counters into s — how a DMatch worker slot keeps the
// work of the engines a reassignment retired. SymmetricRules, MLCacheSize
// and FeatEntries describe what one engine holds, not work done, and stay
// as s has them.
func (s *Stats) Add(o Stats) {
	s.Valuations += o.Valuations
	s.Extensions += o.Extensions
	s.PlanPreds += o.PlanPreds
	s.PlanBatches += o.PlanBatches
	s.MatchesFound += o.MatchesFound
	s.MLValidated += o.MLValidated
	s.Rounds += o.Rounds
	s.IndexBuilds += o.IndexBuilds
	s.MLCacheHits += o.MLCacheHits
	s.MLCacheMiss += o.MLCacheMiss
	s.FeatHits += o.FeatHits
	s.FeatMisses += o.FeatMisses
}

// boundMLPred is an ML body predicate resolved to its classifier.
type boundMLPred struct {
	pred    *rule.Pred
	cl      mlpred.Classifier
	model   uint16 // pred.Model interned (fact.go), as literals carry it
	dynamic bool   // the model appears in some rule head, so validation can flip it

	// fc is cl's feature-scoring interface; when set the predicate is
	// scored over the bundles of feats, addressed by the interned ids of
	// its two attribute lists.
	fc       mlpred.FeatureClassifier
	feats    *mlpred.FeatureStore
	aID, bID uint32
	// An opaque classifier (fc nil) is memoized in cache instead, under
	// the id of (model, A1Vec, A2Vec): two predicates share answers iff
	// classifier and both attribute lists agree.
	cache *mlpred.PairCache
	clID  uint32

	// sim[s] is the similarity join that binds the predicate's side-s
	// variable (0: V1, 1: V2) from the other side's tuple; nil where the
	// predicate or that variable does not qualify (simjoin.go).
	sim [2]*simJoin
}

// boundRule is a rule prepared for enumeration.
type boundRule struct {
	r *rule.Rule

	consts [][]*rule.Pred // per-var constant predicates
	intra  [][]*rule.Pred // per-var equality predicates with both sides on the var
	eqs    []*rule.Pred   // cross-variable equality predicates
	ids    []*rule.Pred   // id predicates in the body
	mls    []boundMLPred  // ML predicates in the body

	// eqIx pre-resolves, aligned with eqs, the two indexes each equality
	// can probe: eqIx[i][0] indexes (V1's relation, A1) and eqIx[i][1]
	// (V2's relation, A2). The pointers stay valid across incremental
	// insertions — IndexSet.AddBatch mutates each Index in place.
	eqIx [][2]*relation.Index

	// plan is the compiled predicate program (plan.go): per-variable
	// word/ML steps, in a fixed order, with the resolved constant probe
	// words. Compiled even for the interpreter (Engine.interpret) —
	// candidatesFor and checkNewBinding read it in both modes.
	plan *rulePlan
	// orders holds the join order of each seed pattern (order.go), the
	// empty pattern first; both modes enumerate along them. seeds[r] is
	// the seed pass's order for the variable orders[0] binds r-th.
	orders, seeds []joinOrder

	// reduced marks a rule that is its own mirror image (rule.Symmetry):
	// its enumerations keep only valuations with
	// h(head.V1).GID < h(head.V2).GID (evalCtx.window).
	reduced bool

	headCl    mlpred.Classifier // classifier of an ML head, if any
	headModel uint16            // its model name interned

	// rels[v] is variable v's relation: its scan list and its columns.
	rels []*relation.Relation
	// cells is a DMatch worker's share of the rule's hypercube (cells.go):
	// the join steps cut their candidates to the cells it owns. Nil in a
	// lone engine, which owns every valuation.
	cells *ruleCells
	// ix is the index set the rule probes. With MQO sharing every rule of
	// the engine probes one set (the engine's, or its handle on a set
	// shared across engines); without, every rule gets its own.
	ix *relation.IndexSet
	// cache and feats are the rule-private ML answer cache and feature
	// store used when MQO sharing is off (the noMQO ablation shares no
	// intermediate results between rules).
	cache *mlpred.PairCache
	feats *mlpred.FeatureStore

	// enumHist times this rule's enumerations; nil when telemetry is off
	// (Observe on nil is a no-op, and the timed regions skip the clock
	// reads entirely).
	enumHist *telemetry.Histogram
}

// Engine is the Match engine of Section V-A, one per dataset or DMatch
// worker. It owns the deduced set Γ (an id-equivalence relation plus
// validated ML predictions) and the inverted indexes, runs every
// enumeration as a task of its pool (pool.go), and exposes Deduce /
// IncDeduce so the parallel engine can drive it as the partial-evaluation
// and incremental algorithms A and A_Δ.
type Engine struct {
	d     *relation.Dataset
	rules []*boundRule
	reg   *mlpred.Registry
	opts  Options

	uf *unionfind.UnionFind
	// classSlot and classLists hold the members of each class a merge
	// touched, in GID order (union), which a class access step lists as
	// its candidates: classSlot[r] is 0 for a root with no list, else 1 +
	// its list's position in classLists. A root with no list is the class
	// {r}, so the table costs 4 bytes per id and at most one list per
	// merge, not |D|. A worker engine's lists hold tuples of other workers'
	// cells too, which its cell cuts drop.
	classSlot  []int32
	classLists [][]relation.TID
	// validated holds the ML predictions of Γ, keyed by literal (model
	// interned), so no probe hashes a string.
	validated map[Literal]bool
	// ix is the index set every rule probes under MQO sharing; nil
	// without.
	ix        *relation.IndexSet
	pairCache *mlpred.PairCache
	feats     *mlpred.FeatureStore

	// idIndex maps, per relation, the packed storage word of a literal id
	// value to the first tuple carrying it (idDuplicates), so the ΔD path
	// of InsertTuples finds duplicate ids in O(1) instead of scanning the
	// relation per tuple.
	idIndex []map[uint64]relation.TID

	// held counts the tuples of d the engine has taken in: those present at
	// New and every InsertTuples batch since. The dataset's later tuples
	// are the next batch. seeded is held as of the last seed pass, 0 until
	// the first: the next InsertTuples seeds every tuple from it on.
	held, seeded int

	dynamicModels map[string]bool

	// idRels marks the relations some rule's id body predicate ranges
	// over: only a merge of two classes with a member in one is queued.
	idRels []bool

	// interpret switches enumeration from the compiled plans to the
	// per-candidate rule interpreter. It is not an option: the interpreter
	// is the equivalence oracle of the plans, and only this package's tests
	// set it (export_test.go). Nor is seedHook, which sees every valuation a
	// seed pass emits, from the goroutine that emits it.
	interpret bool
	seedHook  func(br *boundRule, binding []relation.TID)

	// prov is the justification log (Options.Provenance); nil disables
	// capture. provOrigin labels facts applied without a rule
	// justification — IncDeduce sets it to OriginExternal around the
	// external loop, InsertTuples to OriginIDDup around the ΔD
	// duplicate-id merges.
	prov       *provenance.Log
	provOrigin provenance.Origin

	gamma Gamma
	cnt   engineCounters
	// tel is Options.Metrics; nil disables every observer below (every
	// instrumented site nil-checks before reading the clock).
	tel *telemetry.Registry
	// health is the engine's wiring to the monitor attached to tel; nil
	// disables auditors and heartbeats at one branch per drain round.
	health *engineHealth
	// tc is the engine's root trace context, on tel's tracer; the zero
	// value disables span capture. curTC is the in-flight
	// Deduce/IncDeduce call's child context — written only while the
	// engine is quiescent (never while the pool runs), so the pool's tasks
	// read a stable value.
	tc    telemetry.TraceContext
	curTC telemetry.TraceContext
	// log receives the per-round wide events: tel's logger.
	log *telemetry.Logger

	// queue of unprocessed events driving the update-driven path.
	queue []event

	// jobBuf is the reusable scratch the drain rounds expand their event
	// batches into (see drain.go).
	jobBuf []drainJob

	// delta accumulates the facts deduced during the current Deduce or
	// IncDeduce call.
	delta []Fact
}

// event is one unprocessed state change: either a class merge newly made
// by a union, or one newly validated ML prediction. A merge stores the two
// classes' member slices; the cross pairs are expanded lazily in
// processEvents, per id predicate, instead of being materialized
// O(|Ca|·|Cb|) up front for rules that may not need them.
type event struct {
	kind   FactKind
	ma, mb []relation.TID // FactMatch: members of the two merged classes
	model  string         // FactML
	a, b   relation.TID   // FactML
}

// New prepares an engine over dataset d with resolved rules and the
// classifier registry. Every valuation of every rule is the engine's, and
// the engine owns its indexes; the parallel engine uses NewScoped instead.
func New(d *relation.Dataset, rules []*rule.Rule, reg *mlpred.Registry, opts Options) (*Engine, error) {
	return NewScoped(d, rules, nil, nil, reg, opts)
}

// Cells is a DMatch worker's share of one rule's hypercube: the cube HyPart
// resolved for the rule, with its variables' cells columns, and the
// bitmap of the cells the worker owns (hypart.Cube.Owned).
type Cells struct {
	Cube  *hypart.Cube
	Owned []uint64
}

// NewScoped prepares an engine over d that enumerates, of rule i's
// valuations, only those in the cells cells[i] owns (a nil slice: every
// valuation, as New). HyPart puts each valuation in exactly one cell, and
// the DMatch workers own disjoint cells, so no valuation is enumerated by
// two workers; a tuple that passes a worker's cell test is one the master
// counts the worker a host of (hypart.Result.Hosts), so the worker hosts
// every tuple it binds.
//
// With MQO sharing (Options.ShareIndexes) the rules of a worker engine
// probe ix, an index set over d, through a handle of their own
// (IndexSet.Share), so the worker engines of one process build each index
// once between them; the set is read-only from then on. A lone engine, or
// ix nil, probes a set of the engine's own over d. Without MQO sharing ix
// is not used: every rule gets its own set over d.
func NewScoped(d *relation.Dataset, rules []*rule.Rule, cells []Cells, ix *relation.IndexSet,
	reg *mlpred.Registry, opts Options) (*Engine, error) {
	if cells != nil && len(cells) != len(rules) {
		return nil, fmt.Errorf("chase: cells for %d rules, %d rules", len(cells), len(rules))
	}
	e := &Engine{
		d:             d,
		held:          d.Size(),
		reg:           reg,
		opts:          opts,
		uf:            unionfind.New(d.Size()),
		classSlot:     make([]int32, d.Size()),
		idRels:        make([]bool, len(d.Relations)),
		validated:     make(map[Literal]bool),
		pairCache:     mlpred.NewPairCache(),
		feats:         mlpred.NewFeatureStore(0),
		dynamicModels: make(map[string]bool),
	}
	if opts.ShareIndexes {
		if ix != nil && cells != nil {
			e.ix = ix.Share()
		} else {
			e.ix = relation.NewIndexSet(d)
		}
	}
	e.prov = opts.Provenance
	e.provOrigin = provenance.OriginIDDup
	if opts.Metrics != nil {
		e.initMetrics(opts.Metrics)
	}
	for _, r := range rules {
		if r.Head.Kind == rule.PredML {
			e.dynamicModels[r.Head.Model] = true
		}
	}
	for i, r := range rules {
		var rc *ruleCells
		if cells != nil {
			var err error
			if rc, err = newRuleCells(r, cells[i], d); err != nil {
				return nil, err
			}
		}
		br, err := e.bindRule(r, rc)
		if err != nil {
			return nil, err
		}
		e.rules = append(e.rules, br)
		for _, p := range br.ids {
			e.idRels[r.Vars[p.V1].RelIdx], e.idRels[r.Vars[p.V2].RelIdx] = true, true
		}
	}
	// Pre-merge literal id-value duplicates (these trivial matches are not
	// reported in Γ). The id index is retained so InsertTuples can find
	// later duplicates without re-scanning the relation.
	e.idIndex = make([]map[uint64]relation.TID, len(d.Relations))
	for ri, rel := range d.Relations {
		e.idIndex[ri] = idDuplicates(rel, e.unionInternal)
	}
	return e, nil
}

func (e *Engine) bindRule(r *rule.Rule, cells *ruleCells) (*boundRule, error) {
	if !r.Resolved() {
		return nil, fmt.Errorf("chase: rule %s is not resolved", r.Name)
	}
	if len(r.Vars) > maxRuleVars {
		return nil, fmt.Errorf("chase: rule %s has %d variables, more than %d", r.Name, len(r.Vars), maxRuleVars)
	}
	br := &boundRule{
		r:      r,
		cells:  cells,
		consts: make([][]*rule.Pred, len(r.Vars)),
		intra:  make([][]*rule.Pred, len(r.Vars)),
	}
	for _, v := range r.Vars {
		br.rels = append(br.rels, e.d.Relations[v.RelIdx])
	}
	for i := range r.Body {
		p := &r.Body[i]
		switch p.Kind {
		case rule.PredConst:
			br.consts[p.V1] = append(br.consts[p.V1], p)
		case rule.PredEq:
			if p.V1 == p.V2 {
				br.intra[p.V1] = append(br.intra[p.V1], p)
			} else {
				br.eqs = append(br.eqs, p)
			}
		case rule.PredID:
			br.ids = append(br.ids, p)
		case rule.PredML:
			cl, err := e.reg.Get(p.Model)
			if err != nil {
				return nil, fmt.Errorf("chase: rule %s: %w", r.Name, err)
			}
			br.mls = append(br.mls, boundMLPred{pred: p, cl: cl, model: internModel(p.Model), dynamic: e.dynamicModels[p.Model]})
		}
	}
	if r.Head.Kind == rule.PredML {
		cl, err := e.reg.Get(r.Head.Model)
		if err != nil {
			return nil, fmt.Errorf("chase: rule %s head: %w", r.Name, err)
		}
		br.headCl, br.headModel = cl, internModel(r.Head.Model)
	}
	if e.tel != nil {
		br.enumHist = e.ruleHist(r.Name)
	}
	if e.ix != nil {
		br.ix = e.ix
	} else {
		br.ix = relation.NewIndexSet(e.d)
		br.cache = mlpred.NewPairCache()
		br.feats = mlpred.NewFeatureStore(0)
	}
	// Resolve each ML predicate against the store it will consult at
	// prediction time — the shared pair, or the rule's own without MQO —
	// so the hot path works with small interned integers only.
	cache, feats := e.pairCache, e.feats
	if br.cache != nil {
		cache, feats = br.cache, br.feats
	}
	for i := range br.mls {
		m := &br.mls[i]
		p := m.pred
		if m.fc, _ = m.cl.(mlpred.FeatureClassifier); m.fc != nil {
			m.feats = feats
			m.aID = feats.AttrsID(p.A1Vec)
			m.bID = feats.AttrsID(p.A2Vec)
		} else {
			m.cache = cache
			m.clID = cache.ClassifierID(predSignature(p))
		}
	}
	br.reduced = rule.Symmetry(r, e.symmetricModel) != nil
	for _, p := range br.eqs {
		br.eqIx = append(br.eqIx, [2]*relation.Index{br.ix.For(r.Vars[p.V1].RelIdx, p.A1), br.ix.For(r.Vars[p.V2].RelIdx, p.A2)})
	}
	br.bindSimJoins()
	br.plan = compilePlan(br, e.d.Syms())
	br.planOrders()
	br.cutOrders()
	return br, nil
}

// predSignature identifies an ML predicate for answer sharing: two bound
// predicates may share cached answers iff they agree on the classifier and
// on both attribute lists — the same model over different attribute lists
// is a different function of the tuple pair.
func predSignature(p *rule.Pred) string {
	var sb strings.Builder
	sb.WriteString(p.Model)
	for _, a := range p.A1Vec {
		fmt.Fprintf(&sb, "|%d", a)
	}
	sb.WriteByte('~')
	for _, a := range p.A2Vec {
		fmt.Fprintf(&sb, "|%d", a)
	}
	return sb.String()
}

// symmetricModel reports whether an ML body predicate over the model may
// take part in a rule symmetry: the classifier declares itself symmetric
// and no rule head validates the model (a validated prediction is
// directional, so such a predicate's truth is not a function of the
// unordered pair).
func (e *Engine) symmetricModel(model string) bool {
	if e.dynamicModels[model] {
		return false
	}
	cl, err := e.reg.Get(model)
	if err != nil {
		return false
	}
	fc, ok := cl.(mlpred.FeatureClassifier)
	return ok && fc.Symmetric()
}

// MemUsage is the engine's accounted memory estimate: the dataset's
// columnar arenas (packed columns, symbol table, tuple handles) and the
// deduced set Γ (fact logs, class members, validated predictions, pending
// events). Inverted indexes and ML caches are not part of the account.
type MemUsage struct {
	DatasetBytes int64
	GammaBytes   int64
}

// Total sums the accounted components.
func (m MemUsage) Total() int64 { return m.DatasetBytes + m.GammaBytes }

// Mem returns the engine's current accounted memory estimate.
func (e *Engine) Mem() MemUsage {
	return MemUsage{DatasetBytes: e.d.MemBytes(), GammaBytes: e.gammaBytes()}
}

// gammaBytes estimates Γ's resident footprint: the match and validated
// fact logs (gamma + delta copies), the validated map, the materialized
// class-member slices, and the pending event queue.
func (e *Engine) gammaBytes() int64 {
	n := int64(cap(e.gamma.Matches)+cap(e.gamma.Validated)+cap(e.delta)) * 32
	n += int64(len(e.validated)) * 64
	n += int64(len(e.classSlot))*4 + int64(cap(e.classLists))*24
	for _, ms := range e.classLists {
		n += int64(cap(ms)) * 4
	}
	n += int64(cap(e.queue)) * 64
	return n
}

// sampleMem refreshes the memory-account mirrors the metrics read, once
// per drain round on the engine goroutine, so the /metrics scrape
// goroutine never walks the live maps.
func (e *Engine) sampleMem() {
	e.cnt.memDataset.Store(e.d.MemBytes())
	e.cnt.memGamma.Store(e.gammaBytes())
}

// Same reports whether two tuples are currently matched (t.id = s.id ∈ Γ).
func (e *Engine) Same(a, b relation.TID) bool {
	return a == b || e.uf.Same(int(a), int(b))
}

// Validated reports whether the ML prediction (model, a, b) is in Γ.
func (e *Engine) Validated(model string, a, b relation.TID) bool {
	return e.validated[mlLit(internModel(model), a, b)]
}

// classList returns the stored member list of the class rooted at r, or nil.
// Only call with current roots: a stale root's absence reads as a singleton.
func (e *Engine) classList(r int) []relation.TID {
	if s := e.classSlot[r]; s != 0 {
		return e.classLists[s-1]
	}
	return nil
}

// membersOf returns the members of the class rooted at r. A root with no
// stored list is the implicit singleton {r}.
func (e *Engine) membersOf(r int) []relation.TID {
	if ms := e.classList(r); ms != nil {
		return ms
	}
	return []relation.TID{relation.TID(r)}
}

// unionInternal merges two classes without reporting a fact; used for
// literal id-value duplicates at setup.
func (e *Engine) unionInternal(a, b relation.TID) {
	if ra, rb := e.uf.Find(int(a)), e.uf.Find(int(b)); ra != rb {
		e.union(ra, rb)
	}
}

// union merges the distinct classes rooted at ra and rb and returns their
// member lists. The merged list is built fresh, so the old ones stay
// intact for the event that references them, by a linear merge of the two
// GID-sorted lists: every class list stays in GID order, as a class access
// step's candidates must (gidWindow reads them by binary search).
func (e *Engine) union(ra, rb int) (ma, mb []relation.TID) {
	ma, mb = e.membersOf(ra), e.membersOf(rb)
	e.uf.Union(ra, rb)
	merged := make([]relation.TID, 0, len(ma)+len(mb))
	i, j := 0, 0
	for i < len(ma) && j < len(mb) {
		if ma[i] < mb[j] {
			merged = append(merged, ma[i])
			i++
		} else {
			merged = append(merged, mb[j])
			j++
		}
	}
	merged = append(append(merged, ma[i:]...), mb[j:]...)
	sa, sb := e.classSlot[ra], e.classSlot[rb]
	e.classSlot[ra], e.classSlot[rb] = 0, 0
	s := max(sa, sb) // keep one of the two slots; the other stays empty
	if f := min(sa, sb); f != 0 {
		e.classLists[f-1] = nil
	}
	if s == 0 {
		e.classLists = append(e.classLists, nil)
		s = int32(len(e.classLists))
	}
	e.classLists[s-1] = merged
	e.classSlot[e.uf.Find(ra)] = s
	return ma, mb
}

// applyFact integrates a fact into Γ without a rule justification (the
// recorded origin is the engine's current provOrigin). It reports whether
// the fact was new.
func (e *Engine) applyFact(f Fact) bool {
	return e.applyFactJ(f, nil)
}

// applyFactJ integrates a fact into Γ. If the fact is new, it is appended
// to the current delta, an event is queued for the update-driven path,
// and — when provenance capture is on — its justification j is recorded.
// It reports whether the fact was new.
func (e *Engine) applyFactJ(f Fact, j *justification) bool {
	switch f.Kind {
	case FactMatch:
		ra, rb := e.uf.Find(int(f.A)), e.uf.Find(int(f.B))
		if ra == rb {
			return false
		}
		ma, mb := e.union(ra, rb)
		e.gamma.Matches = append(e.gamma.Matches, f)
		e.delta = append(e.delta, f)
		e.cnt.matches.Add(1)
		if e.prov != nil {
			e.recordProvenance(f, j)
		}
		// The old member slices stay intact (merges build fresh slices),
		// so the event can reference them without copying.
		if e.consumed(ma) && e.consumed(mb) {
			e.queue = append(e.queue, event{kind: FactMatch, ma: ma, mb: mb})
		}
		return true
	default:
		k := mlLit(internModel(f.Model), f.A, f.B)
		if e.validated[k] {
			return false
		}
		e.validated[k] = true
		e.gamma.Validated = append(e.gamma.Validated, f)
		e.delta = append(e.delta, f)
		e.cnt.mlValidated.Add(1)
		if e.prov != nil {
			e.recordProvenance(f, j)
		}
		e.queue = append(e.queue, event{kind: FactML, model: f.Model, a: f.A, b: f.B})
		return true
	}
}

// enumerateRule runs one enumeration of br, with nothing bound, along join
// order o on a pool worker's context c. The histogram and the trace absorb
// concurrent observations; the facts and work counters stay in c's output
// for the caller's merge point.
func (e *Engine) enumerateRule(c *evalCtx, br *boundRule, o *joinOrder) {
	var t0 time.Time
	if e.tel != nil || e.curTC.Enabled() {
		t0 = time.Now()
	}
	c.reset(br)
	c.enumerateIn(o, nil)
	if e.curTC.Enabled() && time.Since(t0) >= fineSpanFloor {
		e.curTC.Record("chase.enumerate", t0, telemetry.L("rule", br.r.Name))
	}
	if e.tel != nil {
		br.enumHist.ObserveDuration(time.Since(t0))
	}
}

// flushCounters lands an output's plain work counters in the engine
// atomics (the merge-point discipline that keeps the hot loops free of
// atomic traffic).
func (e *Engine) flushCounters(o *taskOut) {
	e.cnt.valuations.Add(o.valuations)
	e.cnt.extensions.Add(o.extensions)
	e.cnt.planPreds.Add(o.planEvals)
	e.cnt.planBatches.Add(o.planBatches)
	e.cnt.featHits.Add(o.featHits)
	e.cnt.mlCalls.Add(o.mlCalls)
	o.valuations, o.extensions, o.planEvals, o.planBatches = 0, 0, 0, 0
	o.featHits, o.mlCalls = 0, 0
}

// Deduce runs the full chase pass over all rules (procedure Deduce of
// Section V-A) and then drains the internal update-driven fixpoint. The
// pass is the seed pass at epoch 0 (seedPass), the one InsertTuples runs
// from its batch's epoch: every tuple is new, so each rule is enumerated
// whole along its join order for the empty seed pattern, in GID morsels
// of its first variable's list, as pool tasks against an unchanging Γ, merged in task
// order; the pool's width is GOMAXPROCS, and at any width the final Γ is
// the same, by the Church-Rosser property of the chase. It returns the
// facts deduced during the call.
func (e *Engine) Deduce() []Fact {
	sp := e.startRoot("chase.Deduce")
	defer e.endRoot(sp)
	if h := e.health; h != nil {
		h.hb.Enter()
		defer h.hb.Exit()
	}
	e.delta = e.delta[:0]
	e.seedPass(0)
	e.drain()
	return append([]Fact(nil), e.delta...)
}

// timedMerge merges the output of a task of rule br, in a chase.merge
// span above the span floor.
func (e *Engine) timedMerge(br *boundRule, o *taskOut) {
	tc := e.curTC
	var t0 time.Time
	if tc.Enabled() {
		t0 = time.Now()
	}
	e.mergeCtx(o)
	if tc.Enabled() && time.Since(t0) >= fineSpanFloor {
		tc.Record("chase.merge", t0, telemetry.L("rule", br.r.Name))
	}
}

// IncDeduce applies externally supplied updates ΔΓ (matches and validated
// predictions deduced elsewhere, e.g. on other workers) and incrementally
// deduces their consequences (procedure IncDeduce / algorithm A_Δ). It
// returns the facts newly deduced here, excluding the external inputs.
func (e *Engine) IncDeduce(external []Fact) []Fact {
	sp := e.startRoot("chase.IncDeduce")
	defer e.endRoot(sp)
	if h := e.health; h != nil {
		h.hb.Enter()
		defer h.hb.Exit()
	}
	e.delta = e.delta[:0]
	// Externally supplied facts carry their derivation on the worker that
	// deduced them; here they are recorded as arrivals, which the merged
	// cross-worker log displaces with the originating derivation.
	e.provOrigin = provenance.OriginExternal
	for _, f := range external {
		e.applyFact(f)
	}
	e.provOrigin = provenance.OriginIDDup
	// External facts are not "newly deduced here": they are removed from
	// the reported delta but still drive the update path via the queue.
	skip := len(e.delta)
	e.drain()
	return append([]Fact(nil), e.delta[skip:]...)
}

// consumed reports whether a member of class ms lies in a relation some id
// body predicate ranges over: whether a merge of ms can seed a drain job.
func (e *Engine) consumed(ms []relation.TID) bool {
	for _, t := range ms {
		if e.idRels[e.d.RelOf(t)] {
			return true
		}
	}
	return false
}

func literalFact(l Literal) Fact {
	if l.Kind == FactMatch {
		return MatchFact(l.A, l.B)
	}
	return MLFact(l.ModelName(), l.A, l.B)
}

// Run executes the full sequential algorithm Match and returns Γ.
func (e *Engine) Run() *Gamma {
	e.Deduce()
	return e.Gamma()
}

// Gamma returns the deduced set Γ so far.
func (e *Engine) Gamma() *Gamma {
	g := &Gamma{
		Matches:   append([]Fact(nil), e.gamma.Matches...),
		Validated: append([]Fact(nil), e.gamma.Validated...),
	}
	return g
}

// Classes returns the non-singleton id-equivalence classes, i.e. the
// resolved entities.
func (e *Engine) Classes() [][]relation.TID {
	var out [][]relation.TID
	for _, ms := range e.classLists {
		if len(ms) > 1 {
			out = append(out, append([]relation.TID(nil), ms...))
		}
	}
	return out
}

// Stats returns a snapshot of the engine counters. Everything is read
// from atomics or under the pair cache's shard locks, so Stats is safe to
// call while a deduction is in flight on other goroutines.
func (e *Engine) Stats() Stats {
	s := Stats{
		Valuations:   e.cnt.valuations.Load(),
		Extensions:   e.cnt.extensions.Load(),
		PlanPreds:    e.cnt.planPreds.Load(),
		PlanBatches:  e.cnt.planBatches.Load(),
		MatchesFound: e.cnt.matches.Load(),
		MLValidated:  e.cnt.mlValidated.Load(),
		Rounds:       e.cnt.rounds.Load(),
	}
	counted := make(map[*relation.IndexSet]bool)
	for _, br := range e.rules {
		if !counted[br.ix] {
			counted[br.ix] = true
			s.IndexBuilds += br.ix.Built()
		}
		if br.reduced {
			s.SymmetricRules++
		}
	}
	pair, feat := e.cacheSnapshots()
	s.MLCacheHits, s.MLCacheMiss, s.MLCacheSize = pair.Hits, pair.Misses, pair.Entries
	s.FeatHits, s.FeatMisses, s.FeatEntries = feat.Hits, feat.Misses, feat.Entries
	return s
}
