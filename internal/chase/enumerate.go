package chase

import (
	"sort"
	"time"

	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
	"dcer/internal/telemetry"
)

// taskOut is what enumerations leave for the engine: the facts and
// dependency records a buffered context held back, their justifications,
// and the plain work counters, which land in the engine atomics at the merge
// points (flushCounters). A pool task's output moves out of its worker's
// scratch context when the task ends (pool.go).
type taskOut struct {
	facts []Literal
	// deps holds the buffered dependencies as packed records (deps.go),
	// back to back in chunks that start at depFirstWords and double up to
	// depChunkWords, so growth never copies; the direct path packs each
	// record here too and hands it straight to H.
	deps [][]uint32
	// justs carries the justification of each buffered fact and depJusts
	// of each buffered dependency (aligned with facts and with the records
	// of deps); empty when provenance capture is off.
	justs, depJusts []*justification

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
// buffers reused across valuations, their output (taskOut) and, on a pool
// worker (pool.go), the frozen view of Γ.
//
// The sequential path reuses a single context owned by the engine and
// applies facts directly; each pool worker keeps its own buffered context
// across its tasks, so the enumerations share no mutable state (the engine
// structures they read — validated set, indexes, scopes — are frozen while
// the pool runs) and are merged deterministically afterwards.
type evalCtx struct {
	e  *Engine
	br *boundRule

	// roots freezes the id-equivalence relation: when non-nil, Same is
	// answered from this snapshot instead of the engine's union-find
	// (whose Find path-compresses and must not run under concurrent
	// readers).
	roots []int32

	// buffered redirects emitted facts and dependencies into the context's
	// output instead of applying them to the engine, for the merge.
	buffered bool
	taskOut

	// cut and epoch are the epoch cut of InsertTuples' seed pass: every
	// variable before cut ranges only over tuples older than epoch, so a
	// valuation is enumerated once, from its first new tuple. Zero cut
	// restricts nothing.
	cut   int
	epoch relation.TID
	// seeded, when set, sees every valuation the seed pass emits (the
	// engine's seedHook, which only this package's tests set).
	seeded func(br *boundRule, binding []*relation.Tuple)

	// plans mirrors !Engine.interpret (latched by reset so the hot
	// path reads a local flag); planBufs are the per-recursion-depth
	// candidate scratch buffers of the compiled path.
	plans    bool
	planBufs [][]*relation.Tuple

	// access counts, per variable of br and access path, the times chosen
	// and the candidates returned; flushAccess lands them in the plan when
	// the context moves to another rule and at the merge points.
	access [][numAccessPaths][2]int64

	// arena batch-allocates justifications and their evidence slices when
	// provenance capture is on, so each captured valuation costs O(1)
	// amortized allocations instead of a handful.
	arena justArena

	// candRows memoizes, per recursion depth and unbound variable, the
	// tightest candidate posting list found so far, so each depth probes
	// only the equalities opened by the variable it just bound instead of
	// re-probing every index for every unbound variable (see extend).
	candRows [][]candList

	// scratch buffers, reused across valuations to keep the hot path
	// allocation-free.
	binding []*relation.Tuple
	lvals   []relation.Value
	rvals   []relation.Value
	unsat   []Literal
	seedBuf []*relation.Tuple
}

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
	if cap(c.binding) < n {
		c.binding = make([]*relation.Tuple, n)
	}
	c.binding = c.binding[:n]
	for i := range c.binding {
		c.binding[i] = nil
	}
	if cap(c.candRows) < n {
		c.candRows = make([][]candList, n)
	}
	c.candRows = c.candRows[:n]
	for i := range c.candRows {
		if cap(c.candRows[i]) < n {
			c.candRows[i] = make([]candList, n)
		}
		c.candRows[i] = c.candRows[i][:n]
	}
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

// same answers t.id = s.id ∈ Γ from the frozen snapshot if present, else
// from the live union-find.
func (c *evalCtx) same(a, b relation.TID) bool {
	if a == b {
		return true
	}
	if c.roots != nil {
		return c.roots[a] == c.roots[b]
	}
	return c.e.uf.Same(int(a), int(b))
}

// apply hands a deduced head literal and its justification to the engine
// (sequential mode) or buffers both for the merge step (concurrent mode).
func (c *evalCtx) apply(l Literal, j *justification) {
	if c.buffered {
		c.facts = append(c.facts, l)
		if c.e.prov != nil {
			c.justs = append(c.justs, j)
		}
		return
	}
	c.e.applyFactJ(literalFact(l), j)
}

// depFirstWords is the capacity of a context's first dependency chunk;
// each later chunk doubles the last, up to depChunkWords, and is never
// smaller than the record it is opened for. A pool task that records a
// handful of dependencies keeps 1 KiB, not 64.
const depFirstWords = 1 << 8

// recordDep packs dependency body → head into the context's record
// buffer, where the buffered path leaves it for the merge and the direct
// path hands it to H (which copies it) and takes it back. The justification
// holds the evidence already satisfied at emit time, completed by the body
// when the dependency fires.
func (c *evalCtx) recordDep(body []Literal, head Literal, j *justification) {
	n, size := len(c.deps)-1, depBodyOff+depLitWords*len(body)
	if n < 0 || len(c.deps[n])+size > cap(c.deps[n]) {
		words := depFirstWords
		if n >= 0 {
			words = min(2*cap(c.deps[n]), depChunkWords)
		}
		c.deps = append(c.deps, make([]uint32, 0, max(words, size)))
		n++
	}
	lo := len(c.deps[n])
	c.deps[n] = appendDep(c.deps[n], body, head)
	if c.buffered {
		if j != nil {
			c.depJusts = append(c.depJusts, j)
		}
		return
	}
	if c.e.H.add(c.deps[n][lo:], j) {
		c.e.cnt.depsRecorded.Add(1)
	}
	c.deps[n] = c.deps[n][:lo]
}

// enumerate walks the valuations of the context's rule, starting from an
// optional partial binding seed (nil-padded, indexed by variable
// position). For every complete valuation that satisfies all static
// predicates it calls emit, which derives the head or records a
// dependency in H.
func (c *evalCtx) enumerate(seed []*relation.Tuple) {
	nbound := 0
	if seed != nil {
		for v, t := range seed {
			if t == nil {
				continue
			}
			if !c.checkNewBinding(v, t) {
				return
			}
			c.binding[v] = t
			nbound++
		}
	}
	c.extend(nbound, -1)
}

// candList is one memoized candidate set: the tightest posting list seen
// for a variable so far, and the access path that produced it (apScan
// means the list is the fallback full relation scan, which any index probe
// beats regardless of length).
type candList struct {
	list []*relation.Tuple
	path accessPath
}

// refineSkipLen is the candidate-list length below which extend reuses
// the parent depth's memoized list instead of probing the indexes again:
// scanning a handful of tuples through the word filters is cheaper than
// a hash probe per joining equality.
const refineSkipLen = 8

// extend recursively binds the remaining variables, greedily choosing the
// unbound variable with the fewest index-backed candidates (the per-rule
// "query plan" of Section V-A built on the shared inverted indexes).
//
// Candidate lists are maintained incrementally: binding a variable can
// only tighten another variable's candidates through the equality
// predicates that join the two, so each depth refines the parent depth's
// memoized lists with probes for the last-bound variable alone (last < 0
// recomputes from scratch — the entry point, where seeds may have bound
// several variables at once). This turns the per-node index work from
// O(eqs × unbound vars) map probes into O(eqs touching the new binding).
func (c *evalCtx) extend(nbound, last int) {
	binding := c.binding
	if nbound == len(binding) {
		c.emit()
		return
	}
	row := c.candRows[nbound]
	var prev []candList
	if last >= 0 {
		prev = c.candRows[nbound-1]
	}
	bestVar := -1
	var bestCands []*relation.Tuple
	for v := range binding {
		if binding[v] != nil {
			continue
		}
		var cs candList
		if last < 0 {
			cs = c.candidatesFor(v)
		} else if cs = prev[v]; cs.path == apScan || len(cs.list) > refineSkipLen {
			// Refining an already-tiny list costs more in index probes
			// than the batch filters save: below the threshold the parent
			// list is reused as-is (the predicate programs still check
			// every equality, so a looser candidate list never changes
			// the survivor set — only the constant work per node).
			cs = c.refineCandidates(cs, v, last)
		}
		row[v] = cs
		if bestVar < 0 || len(cs.list) < len(bestCands) {
			bestVar, bestCands = v, cs.list
		}
		if len(bestCands) == 0 {
			return
		}
	}
	// The variable is chosen; only now may its scan be traded for the
	// similarity join (the interpreter, the plans' oracle, keeps scanning).
	path, satisfied := row[bestVar].path, -1
	if path == apScan && c.plans {
		if cands, mi, scored := c.simAccess(bestVar); mi >= 0 {
			bestCands, path, satisfied = cands, apSim, mi
			c.br.plan.vars[bestVar].access[apSim].scored.Add(scored)
		}
	}
	if bestVar < c.cut {
		if bestCands = olderThan(bestCands, c.epoch); len(bestCands) == 0 {
			return
		}
	}
	c.access[bestVar][path][0]++
	c.access[bestVar][path][1] += int64(len(bestCands))
	if c.plans {
		c.extendPlanned(bestVar, bestCands, nbound, satisfied)
		return
	}
	for _, t := range bestCands {
		c.extensions++
		if !c.checkNewBinding(bestVar, t) {
			continue
		}
		binding[bestVar] = t
		c.extend(nbound+1, bestVar)
		binding[bestVar] = nil
	}
}

// candidatesFor computes from scratch the smallest available candidate
// list for binding variable v: the tightest inverted-index posting list
// reachable through an equality predicate to an already-bound variable,
// else a constant predicate's posting list, else a full scan of v's
// relation.
func (c *evalCtx) candidatesFor(v int) candList {
	br, binding := c.br, c.binding
	relIdx := br.r.Vars[v].RelIdx
	var cs candList
	consider := func(lst []*relation.Tuple, path accessPath) {
		if cs.path == apScan || len(lst) < len(cs.list) {
			cs = candList{list: lst, path: path}
		}
	}
	for i, p := range br.eqs {
		if p.V1 == v && binding[p.V2] != nil {
			consider(br.eqIx[i][0].LookupTuple(binding[p.V2], p.A2), apEq)
		} else if p.V2 == v && binding[p.V1] != nil {
			consider(br.eqIx[i][1].LookupTuple(binding[p.V1], p.A1), apEq)
		}
	}
	for _, w := range br.plan.consts[v] {
		if !w.constOK {
			// Unresolvable probe (string not interned, or NaN): the
			// constant matches nothing, so v has no candidates at all.
			consider(nil, apConst)
			continue
		}
		consider(w.ix.LookupWord(w.constW), apConst)
	}
	if cs.path == apScan {
		cs.list = br.scope.Relations[relIdx].Tuples
	}
	return cs
}

// refineCandidates tightens v's memoized candidate list with the index
// probes that binding variable `last` just made available: the equality
// predicates joining v and last, walked in rule order (the same stable
// order candidatesFor uses, so adaptive plan re-sorts never influence
// which of two equal-length postings is kept).
func (c *evalCtx) refineCandidates(cs candList, v, last int) candList {
	br, binding := c.br, c.binding
	for i, p := range br.eqs {
		var lst []*relation.Tuple
		if p.V1 == v && p.V2 == last {
			lst = br.eqIx[i][0].LookupTuple(binding[last], p.A2)
		} else if p.V2 == v && p.V1 == last {
			lst = br.eqIx[i][1].LookupTuple(binding[last], p.A1)
		} else {
			continue
		}
		if cs.path == apScan || len(lst) < len(cs.list) {
			cs = candList{list: lst, path: apEq}
		}
	}
	return cs
}

// olderThan returns the prefix of candidate list ts that is older than
// epoch. Every access path lists the tuples older than an insert batch
// ahead of the batch's own — postings are appended in place, scans and
// similarity joins follow the relation's order — so the prefix is found by
// binary search, after a look at the last tuple: most lists hold no new
// one.
func olderThan(ts []*relation.Tuple, epoch relation.TID) []*relation.Tuple {
	if len(ts) == 0 || ts[len(ts)-1].GID < epoch {
		return ts
	}
	return ts[:sort.Search(len(ts), func(k int) bool { return ts[k].GID >= epoch })]
}

// checkNewBinding verifies every static predicate that becomes fully bound
// when variable v is set to tuple t, and prunes valuations whose head is
// already known. Dynamic predicates (id, and ML predicates whose model can
// be validated by some rule head) are deferred to emit.
//
// The word checks walk the compiled plan's program (shared with the
// batched path) instead of boxing Values: packed words already collapse
// -0/+0 and canonicalize NaN payloads, so word equality equals Value
// equality except for NaN = NaN, which the isFloat guard restores.
// Conjunct order cannot change the conjunction's outcome, so the
// adaptive reordering of the program is invisible here.
func (c *evalCtx) checkNewBinding(v int, t *relation.Tuple) bool {
	br, binding := c.br, c.binding
	if o := br.plan.vars[v].order; o != nil {
		if ob := binding[o.other]; ob != nil && !o.keeps(t.GID, ob.GID) {
			return false
		}
	}
	for _, w := range *br.plan.vars[v].words.Load() {
		switch w.kind {
		case wpConst:
			if !w.constOK || t.Word(w.attr) != w.constW {
				return false
			}
		case wpIntra:
			wa := t.Word(w.attr)
			if wa != t.Word(w.attr2) || (w.isFloat && wa == relation.QNaNWord) {
				return false
			}
		case wpEq:
			o := binding[w.other]
			if o == nil {
				continue
			}
			wa := t.Word(w.attr)
			if wa != o.Word(w.otherAttr) || (w.isFloat && wa == relation.QNaNWord) {
				return false
			}
		}
	}
	for i := range br.mls {
		m := &br.mls[i]
		if m.dynamic {
			continue
		}
		p := m.pred
		var ta, tb *relation.Tuple
		switch {
		case p.V1 == v && p.V2 == v:
			ta, tb = t, t
		case p.V1 == v && binding[p.V2] != nil:
			ta, tb = t, binding[p.V2]
		case p.V2 == v && binding[p.V1] != nil:
			ta, tb = binding[p.V1], t
		default:
			continue
		}
		if !c.predict(m, ta, tb) {
			return false
		}
	}
	// Prune subtrees whose head is already enforced.
	h := &br.r.Head
	switch h.Kind {
	case rule.PredID:
		var ta, tb *relation.Tuple
		switch {
		case h.V1 == v && h.V2 == v:
			ta, tb = t, t
		case h.V1 == v && binding[h.V2] != nil:
			ta, tb = t, binding[h.V2]
		case h.V2 == v && binding[h.V1] != nil:
			ta, tb = binding[h.V1], t
		}
		if ta != nil && (ta == tb || c.same(ta.GID, tb.GID)) {
			return false
		}
	case rule.PredML:
		var ta, tb *relation.Tuple
		switch {
		case h.V1 == v && h.V2 == v:
			ta, tb = t, t
		case h.V1 == v && binding[h.V2] != nil:
			ta, tb = t, binding[h.V2]
		case h.V2 == v && binding[h.V1] != nil:
			ta, tb = binding[h.V1], t
		}
		if ta != nil && c.e.validated[mlLit(br.headModel, ta.GID, tb.GID)] {
			return false
		}
	}
	return true
}

// predict answers ML predicate m over tuples ta, tb. A feature-scoring
// classifier is simply run over the two tuples' prebuilt bundles: no
// answer memo, because a score over warm bundles costs less than a probe
// plus an insert, and symmetry reduction already visits each unordered
// pair once. An opaque classifier — the paper's black box — is answered
// through the id-keyed pair cache. The attribute vectors are gathered into
// the context's scratch buffers only when a bundle or an opaque answer is
// missing (the stores never retain them).
func (c *evalCtx) predict(m *boundMLPred, ta, tb *relation.Tuple) bool {
	if m.fc == nil {
		if ans, ok := m.cache.Lookup(m.clID, ta.GID, tb.GID); ok {
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
		c.lvals = gatherInto(c.lvals, ta, m.pred.A1Vec)
		c.rvals = gatherInto(c.rvals, tb, m.pred.A2Vec)
		ans = m.cl.Predict(c.lvals, c.rvals)
		m.cache.Store(m.clID, ta.GID, tb.GID, ans)
	}
	if !mt0.IsZero() && time.Since(mt0) >= mlTraceFloor {
		tc := c.e.curTC
		tc.Lane(telemetry.PIDMLPred, tc.TID()).Record("mlpred.classify", mt0,
			telemetry.L("model", m.pred.Model))
	}
	return ans
}

// bundle returns t's feature bundle under side s of m (0: A1Vec, 1: A2Vec),
// probing the store first so warm lookups never rehydrate Values.
func (c *evalCtx) bundle(m *boundMLPred, t *relation.Tuple, s int) *mlpred.Features {
	id, attrs := m.aID, m.pred.A1Vec
	if s == 1 {
		id, attrs = m.bID, m.pred.A2Vec
	}
	if f, ok := m.feats.Cached(t.GID, id); ok {
		c.featHits++
		return f
	}
	c.lvals = gatherInto(c.lvals, t, attrs)
	return m.feats.Get(t.GID, id, c.lvals)
}

// seedFor returns the context's reusable seed slice, cleared, for a rule
// of n variables.
func (c *evalCtx) seedFor(n int) []*relation.Tuple {
	if cap(c.seedBuf) < n {
		c.seedBuf = make([]*relation.Tuple, n)
	}
	seed := c.seedBuf[:n]
	clear(seed)
	return seed
}

// runSeed runs one drain job: a restricted enumeration of the job's rule
// with the seeding predicate's variables bound to the job's tuples.
func (c *evalCtx) runSeed(j *drainJob) {
	c.reset(j.br)
	seed := c.seedFor(len(j.br.r.Vars))
	seed[j.p.V1] = j.tx
	if j.p.V1 != j.p.V2 {
		seed[j.p.V2] = j.ty
	}
	c.enumerate(seed)
}

// gatherInto collects an ML predicate's attribute-value vector from a
// tuple into a reused buffer.
func gatherInto(buf []relation.Value, t *relation.Tuple, attrs []int) []relation.Value {
	buf = buf[:0]
	for _, a := range attrs {
		buf = append(buf, t.Val(a))
	}
	return buf
}

// emit processes one complete valuation: if all dynamic predicates hold,
// the head fact is derived; otherwise a dependency "unsatisfied literals →
// head" is recorded in H (procedure Deduce of Section V-A).
func (c *evalCtx) emit() {
	c.valuations++
	br, binding := c.br, c.binding
	if c.seeded != nil {
		c.seeded(br, binding)
	}
	h := &br.r.Head
	var headLit Literal
	if h.Kind == rule.PredID {
		a, b := binding[h.V1], binding[h.V2]
		if a == b || c.same(a.GID, b.GID) {
			return // already enforced
		}
		x, y := a.GID, b.GID
		if y < x {
			x, y = y, x
		}
		headLit = matchLit(x, y)
	} else {
		a, b := binding[h.V1], binding[h.V2]
		headLit = mlLit(br.headModel, a.GID, b.GID)
		if a == b || c.e.validated[headLit] {
			return // trivial self prediction, or already validated
		}
	}

	unsat := c.unsat[:0]
	for _, p := range br.ids {
		a, b := binding[p.V1], binding[p.V2]
		if a == b || c.same(a.GID, b.GID) {
			continue
		}
		x, y := a.GID, b.GID
		if y < x {
			x, y = y, x
		}
		unsat = append(unsat, matchLit(x, y))
	}
	for i := range br.mls {
		m := &br.mls[i]
		if !m.dynamic {
			continue // already checked during binding
		}
		a, b := binding[m.pred.V1], binding[m.pred.V2]
		l := mlLit(m.model, a.GID, b.GID)
		if c.e.validated[l] || c.predict(m, a, b) {
			continue
		}
		unsat = append(unsat, l)
	}
	c.unsat = unsat

	var j *justification
	if c.e.prov != nil {
		j = c.buildJust()
	}
	if len(unsat) == 0 {
		c.apply(headLit, j)
		return
	}
	if len(unsat) > maxDepBody {
		return // not encodable in H; the update-driven path covers it like any drop
	}
	sortLiterals(unsat)
	c.recordDep(unsat, headLit, j)
}

func sortLiterals(ls []Literal) {
	// Insertion sort by key: dependency bodies are tiny.
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && ls[j].less(ls[j-1]); j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
}
