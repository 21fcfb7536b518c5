package chase

// The engine's side of the health observatory (internal/health): a
// heartbeat bracketing every deduction, and sampled invariant auditors
// run at quiesced drain-round boundaries — the same point where plans
// re-sort and budgets recompute, so no enumeration is in flight and the
// engine's single-goroutine state (union-find, Γ, H) is stable without
// locks. Disabled (no monitor attached to Options.Metrics) the whole layer
// costs one nil check per drain round.

import (
	"dcer/internal/health"
	"dcer/internal/provenance"
	"dcer/internal/relation"
)

// healthAuditEvery is the drain-round period of the sampled audits; the
// final quiesced round of every deduction always audits, so short chases
// are still covered.
const healthAuditEvery = 32

// engineHealth holds the engine's registered checks and heartbeat.
type engineHealth struct {
	mon   *health.Monitor
	hb    *health.Heartbeat
	uf    *health.Check
	gamma *health.Check
	deps  *health.Check
	plan  *health.Check

	sampleN int
	seed    int64
	audits  int64
	// accSeen is how many Γ match facts the accuracy observatory has
	// already scored, so each fact is sampled at most once.
	accSeen int
}

func (e *Engine) initHealth(m *health.Monitor) {
	if m == nil {
		return
	}
	e.health = &engineHealth{
		mon:     m,
		hb:      m.Heartbeat("chase_drain"),
		uf:      m.Check("unionfind_roots"),
		gamma:   m.Check("gamma_provenance"),
		deps:    m.Check("depstore_bytes"),
		plan:    m.Check("plan_order"),
		sampleN: m.SampleSize(),
		seed:    m.Seed(),
	}
}

// auditHealth runs every invariant auditor once over fresh samples, then
// feeds the accuracy observatory. Called on the engine's goroutine at a
// quiesced round boundary only. The Γ and accuracy passes resolve pairs
// through E_id's Find, which only terminates on a canonical forest — so
// they run only when the union-find audit passes; its failure already
// fails the diagnosis.
func (e *Engine) auditHealth() {
	h := e.health
	h.audits++
	seed := h.seed + h.audits
	ufOK := e.auditUnionFind(seed)
	if ufOK {
		e.auditGamma(seed)
	}
	e.auditDeps()
	e.auditPlans()
	if ufOK {
		e.observeAccuracy()
	}
}

// auditUnionFind checks that sampled parent chains of E_id are canonical:
// in-range links ending at a self-parented root, no cycles. Returns
// whether the sampled forest is safe to traverse.
func (e *Engine) auditUnionFind(seed int64) bool {
	h := e.health
	sample := health.SampleIDs(e.uf.Len(), h.sampleN, seed)
	if err := health.AuditUnionFind(e.uf, sample); err != nil {
		h.uf.Fail(len(sample), "%v", err)
		return false
	}
	h.uf.Pass(len(sample))
	return true
}

// auditGamma checks sampled Γ match facts: canonical symmetric form
// (A < B, never reflexive), hosted by E_id, and — when provenance is on
// and complete — justified in the log, with rule-origin entries naming
// their rule.
func (e *Engine) auditGamma(seed int64) {
	h := e.health
	n := len(e.gamma.Matches)
	idx := health.SampleIDs(n, h.sampleN, seed)
	provComplete := e.prov != nil && e.prov.Complete()
	for _, i := range idx {
		f := e.gamma.Matches[i]
		switch {
		case f.A == f.B:
			h.gamma.Fail(len(idx), "reflexive match %v in Γ", f)
			return
		case f.B < f.A:
			h.gamma.Fail(len(idx), "non-canonical match %v (A > B breaks the symmetric pair form)", f)
			return
		case !e.uf.Same(int(f.A), int(f.B)):
			h.gamma.Fail(len(idx), "match %v not reflected in E_id", f)
			return
		}
		if provComplete {
			ent, ok := e.prov.Lookup(provenance.MatchID(f.A, f.B))
			if !ok {
				h.gamma.Fail(len(idx), "match %v has no justification in the complete provenance log", f)
				return
			}
			if ent.Origin == provenance.OriginRule && ent.Rule == "" {
				h.gamma.Fail(len(idx), "match %v: rule-origin justification names no rule", f)
				return
			}
		}
	}
	h.gamma.Pass(len(idx))
}

// auditDeps recounts the dependency store from its chunks and tables:
// the byte account and the live count it maintains incrementally must
// equal what is actually resident.
func (e *Engine) auditDeps() {
	h := e.health
	bytes, live := e.H.recount()
	if acct, n := e.H.MemBytes(), e.H.Len(); bytes != acct || live != n {
		h.deps.Fail(live, "H accounts %d bytes / %d deps but a recount gives %d / %d", acct, n, bytes, live)
		return
	}
	h.deps.Pass(live)
}

// planOrderEvalFloor is the per-predicate evaluation count below which
// observed fail rates are considered noise for the order-sanity warning.
const planOrderEvalFloor = 256

// planOrderDriftDiv bounds how much of a judged predicate's evidence may
// postdate the plan's last re-sort: at most one evaluation in
// planOrderDriftDiv. A fail rate fails/evals moves by at most δ/evals when
// δ evaluations are added, so under the bound each rate has moved by at
// most 1/8 since the re-sort and the spread between two of them by at most
// 1/4 — a spread above 1/2 now was an inversion above 1/4 when the stable
// sort by descending fail rate ran, which a working re-sort cannot leave.
const planOrderDriftDiv = 8

// auditPlans checks the compiled plans' counter sanity (fails ≤ evals,
// rates in [0,1]) and warns when adaptive reordering left a variable's
// word program strongly inverted (a much more selective predicate running
// after a much less selective one). A predicate is judged on its position
// only if the plan's last re-sort saw nearly all of its evaluations
// (planOrderDriftDiv): evidence that arrived since — a replayed
// fragment's first uses of a predicate, the last round before a fixpoint —
// is reordering's to act on at the round boundary where it falls due, not
// an inversion it left behind. A re-sort that does not sort, a program
// permuted behind its back or counters that ran backwards still warn at
// the first audit after a round that evaluated little.
func (e *Engine) auditPlans() {
	h := e.health
	rep := e.PlanReport()
	preds := 0
	for i, r := range rep.Rules {
		plan := e.rules[i].plan
		floor := int64(-1) // nothing is judged: the interpreter or a test disabled reordering
		if !rep.Interpreted && plan.sortMin > 0 {
			floor = planOrderDriftDiv * plan.sinceSort.Load()
			if floor < planOrderEvalFloor {
				floor = planOrderEvalFloor
			}
		}
		for _, v := range r.Vars {
			for _, p := range v.Preds {
				preds++
				if p.Fails < 0 || p.Evals < 0 || p.Fails > p.Evals {
					h.plan.Fail(preds, "rule %s var %s pred %s: fails %d vs evals %d", r.Rule, v.Var, p.Pred, p.Fails, p.Evals)
					return
				}
				if p.FailRate < 0 || p.FailRate > 1 {
					h.plan.Fail(preds, "rule %s var %s pred %s: fail rate %v outside [0,1]", r.Rule, v.Var, p.Pred, p.FailRate)
					return
				}
			}
			if floor > 0 {
				if first, last, ok := wordRateSpread(v.Preds, floor); ok && last-first > 0.5 {
					h.plan.Warn(preds, "rule %s var %s: word order inverted (first fail rate %.2f, last %.2f)", r.Rule, v.Var, first, last)
					return
				}
			}
		}
	}
	h.plan.Pass(preds)
}

// wordRateSpread returns the observed fail rates of the first and last
// word predicate of a variable program with at least floor evaluations (ML
// steps sort separately and the symmetry order step is pinned first, so
// neither says anything about the adaptive order); ok is false when fewer
// than two qualify.
func wordRateSpread(preds []PlanPred, floor int64) (first, last float64, ok bool) {
	seen := 0
	for _, p := range preds {
		if p.Kind == "ml" || p.Kind == "order" || p.Evals < floor {
			continue
		}
		if seen == 0 {
			first = p.FailRate
		}
		last = p.FailRate
		seen++
	}
	return first, last, seen >= 2
}

// observeAccuracy feeds the live accuracy observatory: newly deduced Γ
// matches (each fact sampled at most once, via a stride over the new
// suffix) scored against the ground truth with false positives attributed
// through their provenance proofs, then a recall probe over the
// deterministic truth sample.
func (e *Engine) observeAccuracy() {
	h := e.health
	acc := h.mon.Accuracy()
	if acc == nil {
		return
	}
	if n := len(e.gamma.Matches); n > h.accSeen {
		fresh := e.gamma.Matches[h.accSeen:n]
		h.accSeen = n
		step := (len(fresh) + h.sampleN - 1) / h.sampleN
		if step < 1 {
			step = 1
		}
		pairs := make([][2]relation.TID, 0, (len(fresh)+step-1)/step)
		for i := 0; i < len(fresh); i += step {
			pairs = append(pairs, [2]relation.TID{fresh[i].A, fresh[i].B})
		}
		var attribute func(p [2]relation.TID) string
		if e.prov != nil {
			attribute = func(p [2]relation.TID) string {
				ent, ok := e.prov.Lookup(provenance.MatchID(p[0], p[1]))
				if !ok {
					return ""
				}
				if ent.Rule != "" {
					return ent.Rule
				}
				return ent.Origin.String()
			}
		}
		acc.ObserveMatches(pairs, attribute)
	}
	acc.ObserveRecall(func(a, b relation.TID) bool { return e.Same(a, b) })
}
