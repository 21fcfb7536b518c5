package chase

import (
	"math"
	"slices"
	"time"

	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
	"dcer/internal/telemetry"
)

// taskOut is what enumerations leave for the engine: the facts a task
// deduced, their justifications, and the plain work counters, which land
// in the engine atomics at the merge points (flushCounters). A pool task's
// output moves out of its worker's scratch context when the task ends
// (pool.go).
type taskOut struct {
	facts []Literal
	// justs carries the justification of each fact (aligned with facts);
	// empty when provenance capture is off.
	justs []*justification

	valuations int64
	extensions int64

	// featHits counts feature-store probes served warm and mlCalls the
	// classifier invocations over feature bundles.
	featHits int64
	mlCalls  int64

	// planEvals / planBatches are the compiled path's work account.
	planEvals   int64
	planBatches int64
}

// evalCtx carries the mutable state of rule enumerations: the scratch
// buffers reused across valuations and their output (taskOut).
//
// Each pool worker keeps its own context across its tasks, so the
// enumerations share no mutable state (the engine structures they read —
// E_id, the class lists, the validated set, indexes, scopes — do not
// change while the pool runs) and are merged deterministically afterwards.
type evalCtx struct {
	e  *Engine
	br *boundRule
	taskOut

	// task is the seed-pass task in flight (window reads its cuts); nil
	// elsewhere, where the window cuts nothing but the symmetry order.
	task *seedTask
	// seeded, when set, sees every valuation the seed pass emits (the
	// engine's seedHook, which only this package's tests set).
	seeded func(br *boundRule, binding []relation.TID)

	// plans mirrors !Engine.interpret (latched by reset so the hot
	// path reads a local flag); planBufs are the per-recursion-depth
	// candidate scratch buffers of the compiled path.
	plans    bool
	planBufs [][]relation.TID
	// classBufs are the per-depth lists of class access steps (classOf).
	classBufs [][]relation.TID

	// rows is the dataset's row table (relation.Dataset.Rows), latched by
	// reset: a bound variable's tuple t reads attribute a as
	// br.rels[v].Col(a)[rows[t]].
	rows []int32

	// access counts, per variable of br and access path, the times chosen
	// and the candidates returned; flushAccess lands them in the plan when
	// the context moves to another rule and at the merge points.
	access [][numAccessPaths][2]int64

	// arena batch-allocates justifications and their evidence slices when
	// provenance capture is on, so each captured valuation costs O(1)
	// amortized allocations instead of a handful.
	arena justArena

	// order is the join order of the enumeration in flight.
	order *joinOrder

	// scratch buffers, reused across valuations to keep the hot path
	// allocation-free. binding holds each variable's tuple, unbound where
	// it is free.
	binding []relation.TID
	lvals   []relation.Value
	rvals   []relation.Value
	seedBuf []relation.TID
}

// unbound marks a free variable in a binding or a seed.
const unbound relation.TID = -1

// reset points the context at rule br and clears the binding scratch.
func (c *evalCtx) reset(br *boundRule) {
	n := len(br.r.Vars)
	if c.br != br {
		c.flushAccess() // leaves every entry zero
		if cap(c.access) < n {
			c.access = make([][numAccessPaths][2]int64, n)
		}
		c.access = c.access[:n]
	}
	c.br = br
	c.plans = !c.e.interpret
	c.rows = c.e.d.Rows()
	if cap(c.binding) < n {
		c.binding = make([]relation.TID, n)
	}
	c.binding = c.binding[:n]
	for i := range c.binding {
		c.binding[i] = unbound
	}
}

// word reads attribute a of tuple t, bound to (or a candidate of)
// variable v.
func (c *evalCtx) word(v int, t relation.TID, a int) uint64 {
	return c.br.rels[v].Col(a)[c.rows[t]]
}

// flushAccess lands the context's access-path counts in br's plan.
func (c *evalCtx) flushAccess() {
	for v := range c.access {
		for ap, n := range c.access[v] {
			if n[0] != 0 {
				a := &c.br.plan.vars[v].access[ap]
				a.probes.Add(n[0])
				a.cands.Add(n[1])
			}
		}
		c.access[v] = [numAccessPaths][2]int64{}
	}
}

// root returns the root of a's E_id class. Pool tasks read the forest side
// by side while nothing writes it, so they must not compress it
// (UnionFind.Root); only the merge's Find does.
func (c *evalCtx) root(a relation.TID) int {
	return c.e.uf.Root(int(a))
}

// same answers t.id = s.id ∈ Γ.
func (c *evalCtx) same(a, b relation.TID) bool {
	return a == b || c.root(a) == c.root(b)
}

// apply buffers a deduced head literal and its justification for the
// merge step.
func (c *evalCtx) apply(l Literal, j *justification) {
	c.facts = append(c.facts, l)
	if c.e.prov != nil {
		c.justs = append(c.justs, j)
	}
}

// enumerateIn walks the valuations of the context's rule along join order
// o, starting from the partial binding seed (unbound-padded, indexed by
// variable position; nil for none) whose pattern o was planned for. For
// every complete valuation that satisfies its static and id predicates it
// calls emit, which derives the head when the dynamic ML predicates hold
// too.
func (c *evalCtx) enumerateIn(o *joinOrder, seed []relation.TID) {
	c.order = o
	// Seeds skip extend's GID window: a drain job that seeds both head
	// variables of a reduced rule is held to the symmetry order here.
	if h := &c.br.r.Head; c.br.reduced && seed != nil {
		if a, b := seed[h.V1], seed[h.V2]; a != unbound && b != unbound && a >= b {
			return
		}
	}
	for v, t := range seed {
		if t == unbound {
			continue
		}
		if !c.checkNewBinding(v, t) {
			return
		}
		c.binding[v] = t
	}
	c.extend(0)
}

// extend binds the variables of the context's join order from step depth
// on, one access per node: the step's candidates, filtered by the
// variable's program, each bound in turn before the next step.
func (c *evalCtx) extend(depth int) {
	if depth == len(c.order.steps) {
		c.emit()
		return
	}
	st := &c.order.steps[depth]
	v := st.v
	cands, path := c.candidatesFor(st, depth)
	// A scan may be traded for the similarity join (the interpreter, the
	// plans' oracle, keeps scanning).
	satisfied := -1
	if path == apScan && c.plans {
		if sims, mi, scored := c.simAccess(v); mi >= 0 {
			cands, path, satisfied = sims, apSim, mi
			c.br.plan.vars[v].access[apSim].scored.Add(scored)
		}
	}
	lo, hi := c.window(v)
	cands = gidWindow(cands, lo, hi)
	c.access[v][path][0]++
	c.access[v][path][1] += int64(len(cands))
	if len(cands) == 0 {
		return
	}
	if c.plans {
		c.extendPlanned(st, cands, depth, satisfied)
		return
	}
	binding := c.binding
	for _, t := range cands {
		c.extensions++
		if !c.checkNewBinding(v, t) {
			continue
		}
		binding[v] = t
		c.extend(depth + 1)
		binding[v] = unbound
	}
}

// window returns the GID range [lo, hi) that variable v's candidates are
// cut to: in a seed-pass task, the task's morsel for the variable it binds
// first and below the epoch for the variables ranked before it; and, in a
// reduced rule, on v's side of the other head variable once that is bound
// — of each valuation and its mirror twin only the one with
// h(head.V1).GID < h(head.V2).GID is enumerated.
func (c *evalCtx) window(v int) (lo, hi relation.TID) {
	lo, hi = 0, math.MaxInt32
	if tk := c.task; tk != nil {
		switch {
		case v == tk.v:
			lo, hi = tk.lo, tk.hi
		case tk.older&(1<<v) != 0:
			hi = tk.epoch
		}
	}
	if h := &c.br.r.Head; c.br.reduced {
		switch {
		case v == h.V1 && c.binding[h.V2] != unbound:
			hi = min(hi, c.binding[h.V2])
		case v == h.V2 && c.binding[h.V1] != unbound:
			lo = max(lo, c.binding[h.V1]+1)
		}
	}
	return lo, hi
}

// gidWindow returns the part of candidate list ts whose GIDs lie in
// [lo, hi), by two binary searches: every access path lists its candidates
// in strictly ascending GID order (candidatesFor). The open window, and a
// list already inside the window, come back as they are.
func gidWindow(ts []relation.TID, lo, hi relation.TID) []relation.TID {
	if lo <= 0 && hi == math.MaxInt32 || len(ts) == 0 || ts[0] >= lo && ts[len(ts)-1] < hi {
		return ts
	}
	i, _ := slices.BinarySearch(ts, lo)
	ts = ts[i:]
	j, _ := slices.BinarySearch(ts, hi)
	return ts[:j]
}

// checkNewBinding verifies every static and id predicate that becomes
// fully bound when variable v is set to tuple t, and prunes valuations
// whose head is already known. Dynamic ML predicates (whose model some
// rule head can validate) are deferred to emit.
//
// The word checks walk the compiled plan's program (shared with the
// batched path) instead of boxing Values: packed words already collapse
// -0/+0 and canonicalize NaN payloads, so word equality equals Value
// equality except for NaN = NaN, which the isFloat guard restores.
func (c *evalCtx) checkNewBinding(v int, t relation.TID) bool {
	br, binding := c.br, c.binding
	for _, w := range br.plan.vars[v].words {
		switch w.kind {
		case wpConst:
			if !w.constOK || c.word(v, t, w.attr) != w.constW {
				return false
			}
		case wpIntra:
			wa := c.word(v, t, w.attr)
			if wa != c.word(v, t, w.attr2) || (w.isFloat && wa == relation.QNaNWord) {
				return false
			}
		case wpEq:
			o := binding[w.other]
			if o == unbound {
				continue
			}
			wa := c.word(v, t, w.attr)
			if wa != c.word(w.other, o, w.otherAttr) || (w.isFloat && wa == relation.QNaNWord) {
				return false
			}
		}
	}
	for _, s := range br.plan.vars[v].ids {
		if o := binding[s.other]; o != unbound && !c.same(t, o) {
			return false
		}
	}
	for i := range br.mls {
		m := &br.mls[i]
		if m.dynamic {
			continue
		}
		if ta, tb, ok := c.pairWith(m.pred.V1, m.pred.V2, v, t); ok && !c.predict(m, ta, tb) {
			return false
		}
	}
	// Prune subtrees whose head is already enforced.
	h := &br.r.Head
	if ta, tb, ok := c.pairWith(h.V1, h.V2, v, t); ok {
		switch h.Kind {
		case rule.PredID:
			if c.same(ta, tb) {
				return false
			}
		case rule.PredML:
			if c.e.validated[mlLit(br.headModel, ta, tb)] {
				return false
			}
		}
	}
	return true
}

// pairWith returns the tuples of the predicate over variables (v1, v2)
// once variable v is set to t, and whether both sides are then bound.
func (c *evalCtx) pairWith(v1, v2, v int, t relation.TID) (ta, tb relation.TID, ok bool) {
	switch {
	case v1 == v && v2 == v:
		return t, t, true
	case v1 == v && c.binding[v2] != unbound:
		return t, c.binding[v2], true
	case v2 == v && c.binding[v1] != unbound:
		return c.binding[v1], t, true
	}
	return 0, 0, false
}

// predict answers ML predicate m over tuples ta, tb. A feature-scoring
// classifier is simply run over the two tuples' prebuilt bundles: no
// answer memo, because a score over warm bundles costs less than a probe
// plus an insert, and symmetry reduction already visits each unordered
// pair once. An opaque classifier — the paper's black box — is answered
// through the id-keyed pair cache. The attribute vectors are gathered into
// the context's scratch buffers only when a bundle or an opaque answer is
// missing (the stores never retain them).
//
// ta is bound to the predicate's first variable, tb to its second.
func (c *evalCtx) predict(m *boundMLPred, ta, tb relation.TID) bool {
	if m.fc == nil {
		if ans, ok := m.cache.Lookup(m.clID, ta, tb); ok {
			return ans
		}
	}
	// The classifier actually runs. Record it as a span on the ML lane
	// when it clears the duration floor (sub-floor calls are plentiful and
	// would flood the bounded ring).
	var mt0 time.Time
	if c.e.curTC.Enabled() {
		mt0 = time.Now()
	}
	var ans bool
	if m.fc != nil {
		c.mlCalls++
		ans = m.fc.PredictFeatures(c.bundle(m, ta, 0), c.bundle(m, tb, 1))
	} else {
		c.lvals = gatherInto(c.lvals, c.br.rels[m.pred.V1], ta, m.pred.A1Vec)
		c.rvals = gatherInto(c.rvals, c.br.rels[m.pred.V2], tb, m.pred.A2Vec)
		ans = m.cl.Predict(c.lvals, c.rvals)
		m.cache.Store(m.clID, ta, tb, ans)
	}
	if !mt0.IsZero() && time.Since(mt0) >= mlTraceFloor {
		tc := c.e.curTC
		tc.Lane(telemetry.PIDMLPred, tc.TID()).Record("mlpred.classify", mt0,
			telemetry.L("model", m.pred.Model))
	}
	return ans
}

// bundle returns t's feature bundle under side s of m (0: A1Vec over the
// first variable's tuple, 1: A2Vec over the second's), probing the store
// first so warm lookups never rehydrate Values.
func (c *evalCtx) bundle(m *boundMLPred, t relation.TID, s int) *mlpred.Features {
	id, attrs, v := m.aID, m.pred.A1Vec, m.pred.V1
	if s == 1 {
		id, attrs, v = m.bID, m.pred.A2Vec, m.pred.V2
	}
	if f, ok := m.feats.Cached(t, id); ok {
		c.featHits++
		return f
	}
	c.lvals = gatherInto(c.lvals, c.br.rels[v], t, attrs)
	return m.feats.Get(t, id, c.lvals)
}

// seedFor returns the context's reusable seed slice, every variable
// unbound, for a rule of n variables.
func (c *evalCtx) seedFor(n int) []relation.TID {
	if cap(c.seedBuf) < n {
		c.seedBuf = make([]relation.TID, n)
	}
	seed := c.seedBuf[:n]
	for i := range seed {
		seed[i] = unbound
	}
	return seed
}

// runSeed runs one drain job: a restricted enumeration of the job's rule
// with the seeding predicate's variables bound to the job's tuples.
func (c *evalCtx) runSeed(j *drainJob) {
	c.reset(j.br)
	seed := c.seedFor(len(j.br.r.Vars))
	seed[j.p.V1], seed[j.p.V2] = j.tx, j.ty // one tuple when V1 = V2 (addJob)
	c.enumerateIn(j.br.orderFor(1<<j.p.V1|1<<j.p.V2), seed)
}

// gatherInto collects an ML predicate's attribute-value vector from tuple
// t of relation rel into a reused buffer.
func gatherInto(buf []relation.Value, rel *relation.Relation, t relation.TID, attrs []int) []relation.Value {
	buf = buf[:0]
	for _, a := range attrs {
		buf = append(buf, rel.Val(t, a))
	}
	return buf
}

// emit processes one complete valuation, whose static and id predicates
// hold: if every dynamic ML predicate holds too — validated in Γ, or
// predicted by its classifier — the head fact is derived (procedure
// Deduce of Section V-A). Otherwise the valuation is dropped: when the
// prediction is validated later, its FactML event re-seeds the
// predicate's variables (processEvents), and the update-driven path
// inspects the valuation again, as it does every valuation a new id match
// touches.
func (c *evalCtx) emit() {
	c.valuations++
	br, binding := c.br, c.binding
	if c.seeded != nil {
		c.seeded(br, binding)
	}
	h := &br.r.Head
	a, b := binding[h.V1], binding[h.V2]
	var headLit Literal
	if h.Kind == rule.PredID {
		if c.same(a, b) {
			return // already enforced
		}
		headLit = matchLit(min(a, b), max(a, b))
	} else {
		headLit = mlLit(br.headModel, a, b)
		if a == b || c.e.validated[headLit] {
			return // trivial self prediction, or already validated
		}
	}
	for i := range br.mls {
		m := &br.mls[i]
		if !m.dynamic {
			continue // already checked during binding
		}
		x, y := binding[m.pred.V1], binding[m.pred.V2]
		if !c.e.validated[mlLit(m.model, x, y)] && !c.predict(m, x, y) {
			return
		}
	}
	var j *justification
	if c.e.prov != nil {
		j = c.buildJust()
	}
	c.apply(headLit, j)
}
