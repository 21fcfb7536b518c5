package chase

// Compiled predicate plans: every bound rule's body predicates but its
// dynamic ML ones are compiled once, at bind time, into one flat program
// per variable — constant checks, intra-tuple and cross-variable
// equalities on packed words, id predicates against E_id, then cheap
// similarity classifiers, heavier ML predicates last — and the
// enumeration inner loop evaluates whole candidate batches against the
// program with tight compaction loops over the columnar arenas (the CPU
// analog of HyperBlocker's rule execution plans, which are likewise fixed
// before execution).
//
// A program never changes after compilation. Conjunct order cannot change
// a conjunction's survivor set, so Γ is byte-identical to the interpreter
// (Engine.interpret, the plans' equivalence oracle), with or without shared
// indexes; the per-step pass/fail counters only report selectivity
// (PlanReport, the plans debug provider). The symmetry reduction of a rule
// that is its own mirror image is no program step: it is a GID window on
// the candidates of the head variable bound later (evalCtx.window), which
// both paths apply alike.

import (
	"sync/atomic"

	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

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
	// attribute), probed by a constant access step; nil on non-const steps.
	ix *relation.Index

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

// idStep is one id predicate x.id = y.id of a variable's program, checked
// against E_id (read in place, compressed only on the engine goroutine,
// evalCtx.root) once the other side is bound — unless it is the class
// access that bound the variable, which holds by construction.
type idStep struct {
	p     *rule.Pred
	other int

	evals atomic.Int64
	fails atomic.Int64
}

// mlStep is one compiled ML predicate check; mi indexes the rule's
// boundMLPred (which owns the classifier, cache ids and dynamic flag).
type mlStep struct {
	mi int
	p  *rule.Pred

	evals atomic.Int64
	fails atomic.Int64
	// satisfied counts the candidates the step was skipped for because
	// their access path, the predicate's similarity join, already implies it.
	satisfied atomic.Int64
}

// accessPath says where a bound variable's candidates came from.
type accessPath uint8

const (
	apScan  accessPath = iota // the whole relation: no index applied
	apEq                      // the posting list of an equality to a bound variable
	apConst                   // the posting list of a constant predicate
	apSim                     // the similarity join of an ML predicate (simjoin.go)
	apKey                     // the key map of an equality into a unique index
	apClass                   // the E_id class of an id predicate's bound side
	numAccessPaths
)

var accessPathNames = [numAccessPaths]string{"scan", "eq", "const", "sim", "key", "class"}

// accessStats is the account of one access path of one variable: times
// chosen, candidates returned and, for apSim, distinct values scored.
type accessStats struct {
	probes, cands, scored atomic.Int64
}

// varPlan is the compiled program for binding one rule variable. Only its
// counters change while enumerations run (constant probe words are
// re-resolved while quiesced), so enumeration goroutines and the
// /debug/dcer plans provider read it without synchronisation.
type varPlan struct {
	words []*wordPred
	ids   []*idStep
	mls   []*mlStep
	// consts is the constant-check prefix of words, whose resolved probe
	// words a constant access step (order.go) looks its postings up with.
	consts []*wordPred
	access [numAccessPaths]accessStats
}

// rulePlan is the compiled predicate program of one bound rule.
type rulePlan struct {
	vars []varPlan
}

// compilePlan builds the predicate program of br, in the one order it
// keeps: constants, intra-tuple equalities, equalities to other variables,
// id predicates, similarity classifiers, then the other ML predicates.
// Plans are compiled even for the interpreter: candidatesFor uses the
// resolved constant words in both modes, and the interpreter's
// checkNewBinding walks the same word and id lists.
func compilePlan(br *boundRule) *rulePlan {
	r := br.r
	p := &rulePlan{vars: make([]varPlan, len(r.Vars))}
	syms := br.scope.Syms()
	attrType := func(v, a int) relation.Type {
		return br.scope.Relations[r.Vars[v].RelIdx].Schema.Attrs[a].Type
	}
	for v := range r.Vars {
		vp := &p.vars[v]
		for _, pr := range br.consts[v] {
			w := &wordPred{
				kind: wpConst, p: pr, attr: pr.A1, syms: syms,
				ix: br.ix.For(r.Vars[v].RelIdx, pr.A1),
			}
			w.resolveConst()
			vp.words = append(vp.words, w)
		}
		vp.consts = vp.words[:len(vp.words):len(vp.words)]
		for _, pr := range br.intra[v] {
			vp.words = append(vp.words, &wordPred{
				kind: wpIntra, p: pr, attr: pr.A1, attr2: pr.A2,
				isFloat: attrType(v, pr.A1) == relation.TypeFloat,
			})
		}
		for _, pr := range br.eqs {
			switch {
			case pr.V1 == v && pr.V2 != v:
				vp.words = append(vp.words, &wordPred{
					kind: wpEq, p: pr, attr: pr.A1, other: pr.V2, otherAttr: pr.A2,
					isFloat: attrType(v, pr.A1) == relation.TypeFloat,
				})
			case pr.V2 == v && pr.V1 != v:
				vp.words = append(vp.words, &wordPred{
					kind: wpEq, p: pr, attr: pr.A2, other: pr.V1, otherAttr: pr.A1,
					isFloat: attrType(v, pr.A2) == relation.TypeFloat,
				})
			}
		}
		for _, pr := range br.ids {
			switch {
			case pr.V1 == v && pr.V2 != v:
				vp.ids = append(vp.ids, &idStep{p: pr, other: pr.V2})
			case pr.V2 == v && pr.V1 != v:
				vp.ids = append(vp.ids, &idStep{p: pr, other: pr.V1})
			}
		}
		var heavy []*mlStep
		for i := range br.mls {
			m := &br.mls[i]
			if m.dynamic {
				continue // checked by emit, like the interpreter
			}
			if m.pred.V1 != v && m.pred.V2 != v {
				continue
			}
			s := &mlStep{mi: i, p: m.pred}
			if _, sim := m.cl.(*mlpred.SimClassifier); sim {
				vp.mls = append(vp.mls, s) // cheap similarity classifiers before heavier models
			} else {
				heavy = append(heavy, s)
			}
		}
		vp.mls = append(vp.mls, heavy...)
	}
	return p
}

// refreshPlanConsts re-resolves the unresolved constant probe words of
// every plan, for insertion paths that intern new symbols after compile
// time. Must run quiesced (no enumeration in flight).
func (e *Engine) refreshPlanConsts() {
	for _, br := range e.rules {
		for v := range br.plan.vars {
			for _, w := range br.plan.vars[v].consts {
				if !w.constOK {
					w.resolveConst()
				}
			}
		}
	}
}

// planBuf returns the reusable candidate scratch for recursion depth d,
// sized for n tuples. One buffer per depth keeps the whole batched
// enumeration allocation-free after warm-up.
func (c *evalCtx) planBuf(d, n int) []relation.TID {
	for len(c.planBufs) <= d {
		c.planBufs = append(c.planBufs, nil)
	}
	if cap(c.planBufs[d]) < n {
		c.planBufs[d] = make([]relation.TID, n)
	}
	c.planBufs[d] = c.planBufs[d][:n]
	return c.planBufs[d]
}

// extendPlanned is the compiled counterpart of extend's candidate loop:
// each applicable program step of step st's variable runs as one tight
// loop over the packed columns, compacting the survivors of the candidate
// batch into the depth's scratch. The step that is st's own access
// predicate (equality, constant or id) is skipped: every candidate
// satisfies it. Candidate order is preserved, and the surviving set equals
// the interpreter's (each step is one conjunct of the same conjunction),
// so the recursion — and therefore Γ — is reached in the exact same order
// as the per-candidate interpreter.
// satisfied is the index in br.mls of the ML predicate the candidates'
// access path already implies (their similarity join's), -1 when there is
// none: its step is skipped too.
func (c *evalCtx) extendPlanned(st *joinStep, cands []relation.TID, depth, satisfied int) {
	c.extensions += int64(len(cands))
	br, binding, v, rows := c.br, c.binding, st.v, c.rows
	vp, rel := &br.plan.vars[v], br.rels[v]
	// src is read-only until the first filtering step, which writes its
	// survivors into the depth's scratch buffer; from then on the steps
	// compact buf in place. Reading the candidate list directly spares the
	// up-front batch copy (and skips it entirely on nodes where no step
	// applies).
	src := cands
	buf := c.planBuf(depth, len(cands))
	n := len(src)
	var evals int64

	for _, w := range vp.words {
		if n == 0 {
			break
		}
		if w.p == st.pred {
			continue // the access predicate: holds by construction
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
				n = filterWord(buf, src, n, rel.Col(w.attr), rows, w, w.constW, &evals)
				src = buf
			}
		case wpIntra:
			colA, colB := rel.Col(w.attr), rel.Col(w.attr2)
			k := 0
			for i := 0; i < n; i++ {
				t := src[i]
				wa := colA[rows[t]]
				if wa == colB[rows[t]] && !(w.isFloat && wa == relation.QNaNWord) {
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
			if o == unbound {
				continue // not applicable yet at this depth
			}
			key := c.word(w.other, o, w.otherAttr)
			if w.isFloat && key == relation.QNaNWord {
				// NaN equals nothing, and the stored words canonicalize
				// every NaN payload to this one word.
				w.evals.Add(int64(n))
				w.fails.Add(int64(n))
				evals += int64(n)
				n = 0
			} else {
				n = filterWord(buf, src, n, rel.Col(w.attr), rows, w, key, &evals)
				src = buf
			}
		}
	}

	for _, s := range vp.ids {
		if n == 0 {
			break
		}
		o := binding[s.other]
		if o == unbound || s.p == st.pred {
			continue // not applicable yet, or the class access: holds by construction
		}
		ro := c.root(o)
		k := 0
		for i := 0; i < n; i++ {
			t := src[i]
			if c.root(t) == ro {
				buf[k] = t
				k++
			}
		}
		s.evals.Add(int64(n))
		s.fails.Add(int64(n - k))
		evals += int64(n)
		n = k
		src = buf
	}

	// Head pruning runs before the ML steps: dropping a candidate whose
	// head fact is already enforced cannot change the survivor set (emit
	// re-checks the head under the final binding), and it spares
	// classifier calls on valuations that would be discarded anyway.
	if n > 0 {
		n, src = c.pruneHead(v, buf, src, n)
	}

	for _, m := range vp.mls {
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
		other := unbound
		vIsLeft := false
		if !self {
			if p.V1 == v {
				other, vIsLeft = binding[p.V2], true
			} else {
				other = binding[p.V1]
			}
			if other == unbound {
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

	for i := 0; i < n; i++ {
		binding[v] = src[i]
		c.extend(depth + 1)
	}
	binding[v] = unbound
}

// filterWord writes into buf the candidates of src[:n] whose packed word
// of w.attr, col (the candidates' relation's column, hoisted by the
// caller), equals key; rows is the row table. buf == src is the in-place
// compaction of every step after the first. Callers guarantee key is
// never the canonical NaN word, so col[row] == key implies Value equality.
func filterWord(buf, src []relation.TID, n int, col []uint64, rows []int32, w *wordPred, key uint64, evals *int64) int {
	k := 0
	for i := 0; i < n; i++ {
		t := src[i]
		if col[rows[t]] == key {
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
func (c *evalCtx) pruneHead(v int, buf, src []relation.TID, n int) (int, []relation.TID) {
	br, binding := c.br, c.binding
	h := &br.r.Head
	self := h.V1 == v && h.V2 == v
	other := unbound
	if !self {
		switch {
		case h.V1 == v:
			other = binding[h.V2]
		case h.V2 == v:
			other = binding[h.V1]
		default:
			return n, src
		}
		if other == unbound {
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
			if c.same(ta, tb) {
				continue
			}
		} else if c.e.validated[mlLit(c.br.headModel, ta, tb)] {
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

// PlanVarReport is the compiled program of one rule variable, in
// execution order, and the access paths its candidates came from ("scan",
// "eq", "const", "sim", "key", "class"; used ones only).
type PlanVarReport struct {
	Var    string       `json:"var"`
	Preds  []PlanPred   `json:"preds"`
	Access []PlanAccess `json:"access,omitempty"`
}

// PlanStep is one step of a rule's planned join order: the variable bound,
// the access path planned for it ("scan", "eq", "key", "const", "class"),
// the predicate that access answers and, on the step that binds a reduced
// rule's later head variable, the symmetry reduction's GID bound (say
// "l.gid < k.gid") its candidates are cut to. A "key" step whose map
// retired probes the index instead, and its variable's Access counts it as
// "eq".
type PlanStep struct {
	Var   string `json:"var"`
	Path  string `json:"path"`
	Via   string `json:"via,omitempty"`
	Bound string `json:"bound,omitempty"`
}

// RulePlanReport describes one rule's compiled plan: its join order for an
// enumeration from scratch, and each variable's program.
type RulePlanReport struct {
	Rule  string          `json:"rule"`
	Order []PlanStep      `json:"order"`
	Vars  []PlanVarReport `json:"vars"`
}

// PlanReport is a point-in-time snapshot of the engine's compiled plans
// and their observed selectivities. Safe to call while a deduction is in
// flight: programs never change after New and the counters are atomics.
type PlanReport struct {
	Interpreted    bool             `json:"interpreted"`
	PredsEvaluated int64            `json:"preds_evaluated"`
	Batches        int64            `json:"batches"`
	Rules          []RulePlanReport `json:"rules"`
}

// PlanReport snapshots the engine's compiled predicate plans.
func (e *Engine) PlanReport() PlanReport {
	rep := PlanReport{
		Interpreted:    e.interpret,
		PredsEvaluated: e.cnt.planPreds.Load(),
		Batches:        e.cnt.planBatches.Load(),
	}
	for _, br := range e.rules {
		rr := RulePlanReport{Rule: br.r.Name}
		for i := range br.orders[0].steps {
			rr.Order = append(rr.Order, br.describe(&br.orders[0], i))
		}
		for v := range br.plan.vars {
			vp := &br.plan.vars[v]
			pv := PlanVarReport{Var: br.r.Vars[v].Name}
			for _, w := range vp.words {
				pv.Preds = append(pv.Preds, planPred(w.p.String(), w.kind.String(), &w.evals, &w.fails))
			}
			for _, s := range vp.ids {
				pv.Preds = append(pv.Preds, planPred(s.p.String(), "id", &s.evals, &s.fails))
			}
			for _, m := range vp.mls {
				pp := planPred(m.p.String(), "ml", &m.evals, &m.fails)
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

// planPred snapshots one step's counters. fails is loaded before evals:
// every writer adds evals first, so a batch that lands between the two
// loads shows in evals only, and no snapshot reads fails > evals.
func planPred(pred, kind string, evals, fails *atomic.Int64) PlanPred {
	pp := PlanPred{Pred: pred, Kind: kind, Fails: fails.Load()}
	pp.Evals = evals.Load()
	if pp.Evals > 0 {
		pp.FailRate = float64(pp.Fails) / float64(pp.Evals)
	}
	return pp
}
