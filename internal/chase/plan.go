package chase

// Compiled predicate plans: every bound rule's static body predicates are
// compiled into one flat program per variable — constant checks, then
// intra-tuple and cross-variable equalities on packed words, then cheap
// similarity classifiers, heavier ML predicates last — and the enumeration
// inner loop evaluates whole candidate batches against the program with
// tight compaction loops over the columnar arenas (the CPU analog of
// HyperBlocker's rule execution-plan DAGs).
//
// Ordering is seeded statically (const → intra → index-backed equalities →
// sim → ML) and re-sorted adaptively from observed pass/fail counters,
// warm-started from the PR-3 per-rule enumeration histograms. Re-sorting
// happens only between drain rounds, never mid-batch, and reordering the
// conjuncts of a conjunction cannot change its survivor set, so Γ is
// byte-identical to the interpreter (Engine.interpret, the plans'
// equivalence oracle) under every drain mode. A rule that is its own
// mirror image additionally carries a fixed first step on its head
// variables, the GID order test of the symmetry reduction (orderStep),
// which both paths apply alike.

import (
	"sort"
	"sync/atomic"

	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
	"dcer/internal/telemetry"
)

// planResortMinEvals is the number of predicate evaluations a rule plan
// accumulates before its program order is re-sorted by observed
// selectivity, always between drain rounds, never mid-batch.
const planResortMinEvals = 4096

// warmResortDiv divides the resort threshold for rules whose telemetry
// histograms already carry observations from an earlier engine on the
// same registry: their first batches refine an order that prior runs
// began calibrating, so they may re-rank sooner.
const warmResortDiv = 8

// wordPredKind discriminates the packed-word predicate forms.
type wordPredKind uint8

const (
	wpConst wordPredKind = iota // t.A = c
	wpIntra                     // t.A = t.B (both sides on the plan variable)
	wpEq                        // t.A = s.B (s bound earlier)
)

func (k wordPredKind) String() string {
	switch k {
	case wpConst:
		return "const"
	case wpIntra:
		return "intra"
	case wpEq:
		return "eq"
	}
	return "?"
}

// wordPred is one compiled packed-word check of a variable's program. The
// word comparisons mirror Value.Equal exactly: the packed layout already
// collapses -0/+0 and canonicalizes NaN payloads, so the only case where
// word equality and Value equality part ways is NaN = NaN, guarded by
// isFloat (int columns cannot hold a NaN word — they pack integral
// payloads — and string columns compare Syms).
type wordPred struct {
	kind wordPredKind
	p    *rule.Pred

	attr      int // attribute of the plan variable (A1 or A2 as oriented)
	attr2     int // second attribute of the variable (wpIntra)
	other     int // the other variable (wpEq)
	otherAttr int // the other variable's attribute (wpEq)
	isFloat   bool

	// constW is the resolved probe word of a wpConst. A string constant
	// not interned in the dataset matches nothing (constOK false); it is
	// re-resolved when InsertTuples interns new symbols. A NaN constant
	// stays unresolved forever (NaN equals nothing). Only mutated while
	// the engine is quiesced.
	constW  uint64
	constOK bool
	syms    *relation.SymTab
	// ix is the pre-resolved index over the constant's (relation,
	// attribute), probed by candidatesFor; nil on non-const steps.
	ix *relation.Index

	rank int // static seed position; adaptive tie-break

	// Observed selectivity, accumulated once per batch by the compiled
	// path (atomically: parallel drain chunks share the rule's plan).
	evals atomic.Int64
	fails atomic.Int64
}

// resolveConst (re)resolves a wpConst's probe word against the symbol
// table. Numeric constants resolve permanently at compile time; string
// constants may become resolvable later when an insertion interns the
// payload. Callers must be quiesced with respect to enumerations.
func (w *wordPred) resolveConst() {
	w.constW, w.constOK = w.syms.PackValue(w.p.Const)
}

// mlStep is one compiled ML predicate check; mi indexes the rule's
// boundMLPred (which owns the classifier, cache ids and dynamic flag).
type mlStep struct {
	mi   int
	p    *rule.Pred
	rank int

	evals atomic.Int64
	fails atomic.Int64
	// satisfied counts the candidates the step was skipped for because
	// their access path, the predicate's similarity join, already implies it.
	satisfied atomic.Int64
}

// accessPath says where a chosen variable's candidates came from.
type accessPath uint8

const (
	apScan  accessPath = iota // the whole relation: no index applied
	apEq                      // the posting list of an equality to a bound variable
	apConst                   // the posting list of a constant predicate
	apSim                     // the similarity join of an ML predicate (simjoin.go)
	numAccessPaths
)

var accessPathNames = [numAccessPaths]string{"scan", "eq", "const", "sim"}

// accessStats is the account of one access path of one variable: times
// chosen, candidates returned and, for apSim, distinct values scored.
type accessStats struct {
	probes, cands, scored atomic.Int64
}

// orderStep is the symmetry-reduction filter of a reduced rule (one whose
// body is its own mirror image, rule.Symmetry): of each valuation h and
// its twin h∘σ only the one with h(head.V1).GID < h(head.V2).GID is
// enumerated. It sits on both head variables and applies to whichever is
// bound later — one GID compare, ahead of every other step, outside the
// adaptive re-sort: no word or ML step can be cheaper.
type orderStep struct {
	other int  // the other head variable
	below bool // the plan variable is head.V1: keep GIDs below the other's

	evals atomic.Int64
	fails atomic.Int64
}

// keeps reports whether binding the plan variable to tuple t survives,
// given the other head variable's tuple o.
func (s *orderStep) keeps(t, o relation.TID) bool {
	if s.below {
		return t < o
	}
	return t > o
}

// varPlan is the compiled program for binding one rule variable. The
// slices are published through atomic pointers so the /debug/dcer plans
// provider can walk a plan while a drain is running: a reader sees either
// the pre- or post-resort order, never a partially sorted slice. The
// enumeration goroutines themselves only observe resorts between drain
// rounds (maybeResortPlans runs on the engine goroutine at round
// boundaries, after the workers have joined).
type varPlan struct {
	order  *orderStep // nil unless the rule is reduced and this is a head variable
	words  atomic.Pointer[[]*wordPred]
	mls    atomic.Pointer[[]*mlStep]
	access [numAccessPaths]accessStats
}

// rulePlan is the compiled predicate program of one bound rule.
type rulePlan struct {
	vars []varPlan

	// consts keeps the per-variable constant checks in rule order for
	// candidatesFor: posting-list selection wants the resolved probe words
	// regardless of the adaptive order.
	consts [][]*wordPred

	// sortMin gates adaptive reordering: once sinceSort accumulates this
	// many predicate evaluations the next round boundary re-sorts the
	// programs. Non-positive disables reordering (tests only).
	sortMin   int64
	sinceSort atomic.Int64
	reorders  atomic.Int64
}

// compilePlan builds the predicate program of br. Plans are compiled even
// for the interpreter: candidatesFor uses the resolved constant words in
// both modes, and the interpreter's checkNewBinding walks the same word
// list (in whatever order it currently holds — conjunct order cannot
// change the outcome).
func compilePlan(e *Engine, br *boundRule) *rulePlan {
	r := br.r
	p := &rulePlan{
		vars:   make([]varPlan, len(r.Vars)),
		consts: make([][]*wordPred, len(r.Vars)),
	}
	if br.reduced {
		h := &r.Head
		p.vars[h.V1].order = &orderStep{other: h.V2, below: true}
		p.vars[h.V2].order = &orderStep{other: h.V1}
	}
	syms := br.scope.Syms()
	attrType := func(v, a int) relation.Type {
		return br.scope.Relations[r.Vars[v].RelIdx].Schema.Attrs[a].Type
	}
	for v := range r.Vars {
		var words []*wordPred
		rank := 0
		for _, pr := range br.consts[v] {
			w := &wordPred{
				kind: wpConst, p: pr, attr: pr.A1, syms: syms, rank: rank,
				ix: br.ix.For(r.Vars[v].RelIdx, pr.A1),
			}
			w.resolveConst()
			rank++
			words = append(words, w)
			p.consts[v] = append(p.consts[v], w)
		}
		for _, pr := range br.intra[v] {
			words = append(words, &wordPred{
				kind: wpIntra, p: pr, attr: pr.A1, attr2: pr.A2,
				isFloat: attrType(v, pr.A1) == relation.TypeFloat,
				rank:    100 + rank,
			})
			rank++
		}
		for _, pr := range br.eqs {
			switch {
			case pr.V1 == v && pr.V2 != v:
				words = append(words, &wordPred{
					kind: wpEq, p: pr, attr: pr.A1, other: pr.V2, otherAttr: pr.A2,
					isFloat: attrType(v, pr.A1) == relation.TypeFloat,
					rank:    200 + rank,
				})
				rank++
			case pr.V2 == v && pr.V1 != v:
				words = append(words, &wordPred{
					kind: wpEq, p: pr, attr: pr.A2, other: pr.V1, otherAttr: pr.A1,
					isFloat: attrType(v, pr.A2) == relation.TypeFloat,
					rank:    200 + rank,
				})
				rank++
			}
		}
		var mls []*mlStep
		for i := range br.mls {
			m := &br.mls[i]
			if m.dynamic {
				continue // deferred to emit, like the interpreter
			}
			if m.pred.V1 != v && m.pred.V2 != v {
				continue
			}
			mrank := 400 + i
			if _, sim := m.cl.(*mlpred.SimClassifier); sim {
				mrank = 300 + i // cheap similarity classifiers before heavier models
			}
			mls = append(mls, &mlStep{mi: i, p: m.pred, rank: mrank})
		}
		p.vars[v].words.Store(&words)
		p.vars[v].mls.Store(&mls)
	}
	p.sortMin = planResortMinEvals
	if br.enumHist != nil && br.enumHist.Snapshot().Count > 0 {
		p.sortMin /= warmResortDiv
	}
	return p
}

// refreshPlanConsts re-resolves the unresolved constant probe words of
// every plan, for insertion paths that intern new symbols after compile
// time. Must run quiesced (no enumeration in flight).
func (e *Engine) refreshPlanConsts() {
	for _, br := range e.rules {
		for _, ws := range br.plan.consts {
			for _, w := range ws {
				if !w.constOK {
					w.resolveConst()
				}
			}
		}
	}
}

// maybeResortPlans re-sorts the predicate programs of rules whose
// observation budget is due. Called only at quiesced points — the top of
// a drain round, after every worker of the previous batch has joined —
// so a batch never observes a mid-flight reorder and Γ stays
// deterministic (conjunct order cannot change a conjunction's survivors;
// determinism only needs the order to be stable within a batch).
func (e *Engine) maybeResortPlans() {
	if e.interpret {
		return
	}
	traced := e.curTC.Enabled()
	for _, br := range e.rules {
		p := br.plan
		if p == nil || p.sortMin <= 0 || p.sinceSort.Load() < p.sortMin {
			continue
		}
		p.sinceSort.Store(0)
		var before string
		if traced {
			before = planOrderDesc(br)
		}
		if p.resort() {
			e.cnt.planReorders.Add(1)
			if traced {
				// Stamp the re-sort with the order it replaced and the
				// pass/fail counts that triggered it (the "after" string
				// carries the same counters in the new order).
				e.curTC.Event("chase.plan.resort",
					telemetry.L("rule", br.r.Name),
					telemetry.L("before", before),
					telemetry.L("after", planOrderDesc(br)))
			}
		}
	}
}

// resort stably re-sorts every variable program by observed fail rate
// (most selective first), breaking ties — and ordering steps that have
// not been exercised yet — by static rank. Reports whether any program's
// order actually changed.
func (p *rulePlan) resort() bool {
	changed := false
	for v := range p.vars {
		vp := &p.vars[v]
		if resortSteps(&vp.words, func(w *wordPred) (int64, int64, int) {
			return w.evals.Load(), w.fails.Load(), w.rank
		}) {
			changed = true
		}
		if resortSteps(&vp.mls, func(m *mlStep) (int64, int64, int) {
			return m.evals.Load(), m.fails.Load(), m.rank
		}) {
			changed = true
		}
	}
	if changed {
		p.reorders.Add(1)
	}
	return changed
}

// resortSteps sorts one program slice through its atomic pointer,
// publishing a freshly sorted copy so concurrent readers never see a
// partial permutation. stats returns (evals, fails, static rank).
func resortSteps[T comparable](ptr *atomic.Pointer[[]T], stats func(T) (int64, int64, int)) bool {
	old := *ptr.Load()
	if len(old) < 2 {
		return false
	}
	failRate := func(s T) float64 {
		evals, fails, _ := stats(s)
		if evals == 0 {
			return -1 // unexercised: keep behind every observed step
		}
		return float64(fails) / float64(evals)
	}
	next := append([]T(nil), old...)
	sort.SliceStable(next, func(i, j int) bool {
		fi, fj := failRate(next[i]), failRate(next[j])
		if fi != fj {
			return fi > fj
		}
		_, _, ri := stats(next[i])
		_, _, rj := stats(next[j])
		return ri < rj
	})
	for i := range next {
		if next[i] != old[i] {
			ptr.Store(&next)
			return true
		}
	}
	return false
}

// planBuf returns the reusable candidate scratch for recursion depth d,
// sized for n tuples. One buffer per depth keeps the whole batched
// enumeration allocation-free after warm-up.
func (c *evalCtx) planBuf(d, n int) []*relation.Tuple {
	for len(c.planBufs) <= d {
		c.planBufs = append(c.planBufs, nil)
	}
	if cap(c.planBufs[d]) < n {
		c.planBufs[d] = make([]*relation.Tuple, n)
	}
	c.planBufs[d] = c.planBufs[d][:n]
	return c.planBufs[d]
}

// extendPlanned is the compiled counterpart of extend's candidate loop:
// the candidate batch for variable v is gathered into the depth's scratch
// and each applicable program step runs as one tight loop over the packed
// columns, compacting survivors in place. Candidate order is preserved,
// the variable choice was already made by extend, and the surviving set
// equals the interpreter's (each step is one conjunct of the same
// conjunction), so the recursion — and therefore Γ — is reached in the
// exact same order as the per-candidate interpreter. satisfied is the index
// in br.mls of the ML predicate the candidates' access path already implies
// (their similarity join's), -1 when there is none: its step is skipped.
func (c *evalCtx) extendPlanned(v int, cands []*relation.Tuple, nbound, satisfied int) {
	c.extensions += int64(len(cands))
	br, binding := c.br, c.binding
	vp := &br.plan.vars[v]
	// src is read-only until the first filtering step, which writes its
	// survivors into the depth's scratch buffer; from then on the steps
	// compact buf in place. Reading the candidate posting list directly
	// spares the up-front batch copy (and skips it entirely on nodes
	// where no step applies).
	src := cands
	buf := c.planBuf(nbound, len(cands))
	n := len(src)
	var evals int64

	if o := vp.order; o != nil && binding[o.other] != nil {
		og := binding[o.other].GID
		k := 0
		for _, t := range src[:n] {
			if o.keeps(t.GID, og) {
				buf[k] = t
				k++
			}
		}
		o.evals.Add(int64(n))
		o.fails.Add(int64(n - k))
		evals += int64(n)
		n = k
		src = buf
	}

	for _, w := range *vp.words.Load() {
		if n == 0 {
			break
		}
		switch w.kind {
		case wpConst:
			if !w.constOK {
				// Unresolvable constant (unknown string or NaN): no tuple
				// can satisfy it.
				w.evals.Add(int64(n))
				w.fails.Add(int64(n))
				evals += int64(n)
				n = 0
			} else {
				n = filterWord(buf, src, n, w, w.constW, &evals)
				src = buf
			}
		case wpIntra:
			colA, colB := src[0].Col(w.attr), src[0].Col(w.attr2)
			k := 0
			for i := 0; i < n; i++ {
				t := src[i]
				wa := colA[t.Row]
				if wa == colB[t.Row] && !(w.isFloat && wa == relation.QNaNWord) {
					buf[k] = t
					k++
				}
			}
			w.evals.Add(int64(n))
			w.fails.Add(int64(n - k))
			evals += int64(n)
			n = k
			src = buf
		case wpEq:
			o := binding[w.other]
			if o == nil {
				continue // not applicable yet at this depth
			}
			key := o.Word(w.otherAttr)
			if w.isFloat && key == relation.QNaNWord {
				// NaN equals nothing, and the stored words canonicalize
				// every NaN payload to this one word.
				w.evals.Add(int64(n))
				w.fails.Add(int64(n))
				evals += int64(n)
				n = 0
			} else {
				n = filterWord(buf, src, n, w, key, &evals)
				src = buf
			}
		}
	}

	// Head pruning runs before the ML steps: dropping a candidate whose
	// head fact is already enforced cannot change the survivor set (emit
	// re-checks the head under the final binding), and it spares
	// classifier calls on valuations that would be discarded anyway.
	if n > 0 {
		n, src = c.pruneHead(v, buf, src, n)
	}

	for _, m := range *vp.mls.Load() {
		if n == 0 {
			break
		}
		if m.mi == satisfied {
			m.satisfied.Add(int64(n))
			continue
		}
		bm := &br.mls[m.mi]
		p := m.p
		self := p.V1 == v && p.V2 == v
		var other *relation.Tuple
		vIsLeft := false
		if !self {
			if p.V1 == v {
				other, vIsLeft = binding[p.V2], true
			} else {
				other = binding[p.V1]
			}
			if other == nil {
				continue
			}
		}
		k := 0
		for i := 0; i < n; i++ {
			t := src[i]
			ta, tb := t, t
			if !self {
				if vIsLeft {
					tb = other
				} else {
					ta = other
				}
			}
			if c.predict(bm, ta, tb) {
				buf[k] = t
				k++
			}
		}
		m.evals.Add(int64(n))
		m.fails.Add(int64(n - k))
		evals += int64(n)
		n = k
		src = buf
	}

	c.planEvals += evals
	c.planBatches++
	br.plan.sinceSort.Add(evals)

	for i := 0; i < n; i++ {
		binding[v] = src[i]
		c.extend(nbound+1, v)
	}
	binding[v] = nil
}

// filterWord writes into buf the candidates of src[:n] whose packed word
// of w.attr equals key. All candidates of a variable share one root
// relation (fragments share root tuples), so the column slice is hoisted
// once and the loop touches only packed words. buf == src is the in-place
// compaction of every step after the first. Callers guarantee key is
// never the canonical NaN word, so col[row] == key implies Value equality.
func filterWord(buf, src []*relation.Tuple, n int, w *wordPred, key uint64, evals *int64) int {
	col := src[0].Col(w.attr)
	k := 0
	for i := 0; i < n; i++ {
		t := src[i]
		if col[t.Row] == key {
			buf[k] = t
			k++
		}
	}
	w.evals.Add(int64(n))
	w.fails.Add(int64(n - k))
	*evals += int64(n)
	return k
}

// pruneHead writes into buf the candidates of src[:n] whose head fact is
// not already enforced in Γ, mirroring the head-pruning branch of
// checkNewBinding batch-wise; it returns the surviving count and the
// slice holding the survivors (src untouched when the head does not
// apply at this depth, buf otherwise; buf == src compacts in place).
func (c *evalCtx) pruneHead(v int, buf, src []*relation.Tuple, n int) (int, []*relation.Tuple) {
	br, binding := c.br, c.binding
	h := &br.r.Head
	self := h.V1 == v && h.V2 == v
	var other *relation.Tuple
	if !self {
		switch {
		case h.V1 == v:
			other = binding[h.V2]
		case h.V2 == v:
			other = binding[h.V1]
		default:
			return n, src
		}
		if other == nil {
			return n, src
		}
	}
	k := 0
	for i := 0; i < n; i++ {
		t := src[i]
		ta, tb := t, t
		if !self {
			if h.V1 == v {
				tb = other
			} else {
				ta = other
			}
		}
		if h.Kind == rule.PredID {
			if ta == tb || c.same(ta.GID, tb.GID) {
				continue
			}
		} else if c.e.validated[mlLit(c.br.headModel, ta.GID, tb.GID)] {
			continue
		}
		buf[k] = t
		k++
	}
	return k, buf
}

// PlanPred is one step of a compiled predicate program together with its
// observed selectivity, as exposed by PlanReport and the plans debug
// provider.
type PlanPred struct {
	Pred     string  `json:"pred"`
	Kind     string  `json:"kind"`
	Evals    int64   `json:"evals"`
	Fails    int64   `json:"fails"`
	FailRate float64 `json:"fail_rate"`
	// Satisfied counts the candidates an ML step was skipped for because
	// their access path implied it: exercised, whatever Evals says.
	Satisfied int64 `json:"satisfied,omitempty"`
}

// PlanAccess is one access path a variable was bound through: times chosen,
// candidates returned in total and, for "sim", distinct values scored.
type PlanAccess struct {
	Path       string `json:"path"`
	Probes     int64  `json:"probes"`
	Scored     int64  `json:"scored,omitempty"`
	Candidates int64  `json:"candidates"`
}

// PlanVarReport is the compiled program of one rule variable, in current
// (possibly adaptively re-sorted) execution order, and the access paths
// its candidates came from ("scan", "eq", "const", "sim"; used ones only).
type PlanVarReport struct {
	Var    string       `json:"var"`
	Preds  []PlanPred   `json:"preds"`
	Access []PlanAccess `json:"access,omitempty"`
}

// RulePlanReport describes one rule's compiled plan.
type RulePlanReport struct {
	Rule     string          `json:"rule"`
	Reorders int64           `json:"reorders"`
	Vars     []PlanVarReport `json:"vars"`
}

// PlanReport is a point-in-time snapshot of the engine's compiled plans
// and their observed selectivities. Safe to call while a deduction is in
// flight: program slices are read through their atomic pointers and the
// counters are atomics.
type PlanReport struct {
	Interpreted    bool             `json:"interpreted"`
	PredsEvaluated int64            `json:"preds_evaluated"`
	Batches        int64            `json:"batches"`
	Reorders       int64            `json:"reorders"`
	Rules          []RulePlanReport `json:"rules"`
}

// PlanReport snapshots the engine's compiled predicate plans.
func (e *Engine) PlanReport() PlanReport {
	rep := PlanReport{
		Interpreted:    e.interpret,
		PredsEvaluated: e.cnt.planPreds.Load(),
		Batches:        e.cnt.planBatches.Load(),
		Reorders:       e.cnt.planReorders.Load(),
	}
	for _, br := range e.rules {
		rr := RulePlanReport{Rule: br.r.Name, Reorders: br.plan.reorders.Load()}
		for v := range br.plan.vars {
			vp := &br.plan.vars[v]
			pv := PlanVarReport{Var: br.r.Vars[v].Name}
			if o := vp.order; o != nil {
				lo, hi := br.r.Vars[v].Name, br.r.Vars[o.other].Name
				if !o.below {
					lo, hi = hi, lo
				}
				pv.Preds = append(pv.Preds, planPred(lo+".gid < "+hi+".gid", "order", o.evals.Load(), o.fails.Load()))
			}
			for _, w := range *vp.words.Load() {
				pv.Preds = append(pv.Preds, planPred(w.p.String(), w.kind.String(), w.evals.Load(), w.fails.Load()))
			}
			for _, m := range *vp.mls.Load() {
				pp := planPred(m.p.String(), "ml", m.evals.Load(), m.fails.Load())
				pp.Satisfied = m.satisfied.Load()
				pv.Preds = append(pv.Preds, pp)
			}
			for ap := range vp.access {
				if a := &vp.access[ap]; a.probes.Load() > 0 {
					pv.Access = append(pv.Access, PlanAccess{
						Path: accessPathNames[ap], Probes: a.probes.Load(),
						Scored: a.scored.Load(), Candidates: a.cands.Load(),
					})
				}
			}
			rr.Vars = append(rr.Vars, pv)
		}
		rep.Rules = append(rep.Rules, rr)
	}
	return rep
}

func planPred(pred, kind string, evals, fails int64) PlanPred {
	pp := PlanPred{Pred: pred, Kind: kind, Evals: evals, Fails: fails}
	if evals > 0 {
		pp.FailRate = float64(fails) / float64(evals)
	}
	return pp
}
