package chase

// The engine's side of the health observatory (internal/health): a
// heartbeat bracketing every deduction, and sampled invariant auditors
// run at quiesced drain-round boundaries, where no enumeration is in
// flight and the engine's single-goroutine state (union-find, Γ) is
// stable without locks. Disabled (no monitor attached to Options.Metrics)
// the whole layer costs one nil check per drain round.

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

// auditPlans checks the compiled plans' counters: no step has failed more
// candidates than it evaluated, and every fail rate lies in [0,1].
func (e *Engine) auditPlans() {
	h := e.health
	rep := e.PlanReport()
	preds := 0
	for _, r := range rep.Rules {
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
		}
	}
	h.plan.Pass(preds)
}

// observeAccuracy feeds the live accuracy observatory: newly deduced Γ
// matches (Accuracy.ObserveFresh) scored against the ground truth with
// false positives attributed through their provenance proofs, then a
// recall probe over the deterministic truth sample.
func (e *Engine) observeAccuracy() {
	h := e.health
	acc := h.mon.Accuracy()
	if acc == nil {
		return
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
	matches := e.gamma.Matches
	h.accSeen = acc.ObserveFresh(h.accSeen, len(matches), func(i int) [2]relation.TID {
		return [2]relation.TID{matches[i].A, matches[i].B}
	}, attribute)
	acc.ObserveRecall(func(a, b relation.TID) bool { return e.Same(a, b) })
}
