package chase

// Provenance capture inside the production chase. Every fact enters Γ
// through applyFactJ (engine.go); when Options.Provenance is set, the
// justification carried alongside the fact — built at emit time from the
// satisfied body predicates of the deriving valuation, or reconstructed
// at dependency-fire time from the stored record (DepStore.fire) — is
// converted to a
// provenance.Entry and recorded. When capture is off every justification
// pointer is nil and the valuation hot path allocates nothing.

import (
	"dcer/internal/provenance"
	"dcer/internal/relation"
	"dcer/internal/unionfind"
)

// justification is the chase-internal evidence of one rule application:
// which rule fired on which valuation, which facts of Γ satisfied its
// dynamic body predicates (deps), and which ML predicate outcomes it
// consumed directly from the classifiers (checks). For a valuation parked
// in H it holds the evidence satisfied at emit time; the dependency's
// body supplies the rest when it fires.
type justification struct {
	origin    provenance.Origin
	rule      string
	valuation []relation.TID
	deps      []Literal
	checks    []provenance.MLCheck
}

// justArena batch-allocates justifications and their evidence slices.
// Dependencies vastly outnumber derived facts and every dependency
// carries a justification, so per-justification heap allocation is the
// dominant capture cost; the arena amortizes it to one slab allocation
// per justSlabSize justifications plus the doubling growth of the three
// shared evidence buffers. Evidence sub-slices are taken with full-slice
// expressions, so when an arena buffer grows, justifications built
// earlier keep the previous backing array alive and are never aliased
// by later appends. The arena retains all evidence for the life of its
// context — including justifications of dependencies later discarded —
// which a provenance-enabled run accepts: the log it feeds retains
// comparable state anyway, and a disabled run never touches the arena.
type justArena struct {
	slab   []justification
	vals   []relation.TID
	deps   []Literal
	checks []provenance.MLCheck
}

const justSlabSize = 256

// alloc returns a zeroed justification from the current slab, starting a
// fresh slab when full. Pointers into previous slabs stay valid.
func (a *justArena) alloc() *justification {
	if len(a.slab) == cap(a.slab) {
		a.slab = make([]justification, 0, justSlabSize)
	}
	a.slab = a.slab[:len(a.slab)+1]
	return &a.slab[len(a.slab)-1]
}

// factID converts an engine fact to its provenance identity.
func factID(f Fact) provenance.FactID {
	if f.Kind == FactMatch {
		return provenance.MatchID(f.A, f.B)
	}
	return provenance.MLID(f.Model, f.A, f.B)
}

// literalID converts a dependency literal to its provenance identity.
func literalID(l Literal) provenance.FactID {
	if l.Kind == FactMatch {
		return provenance.MatchID(l.A, l.B)
	}
	return provenance.MLID(l.ModelName(), l.A, l.B)
}

// recordProvenance logs the derivation of a newly applied fact. A nil
// justification means the fact arrived without a rule application — an
// external input or a ΔD duplicate-id merge — and is labeled with the
// engine's current provOrigin.
func (e *Engine) recordProvenance(f Fact, j *justification) {
	en := provenance.Entry{Fact: factID(f)}
	if j == nil {
		en.Origin = e.provOrigin
	} else {
		en.Origin = j.origin
		en.Rule = j.rule
		en.Valuation = j.valuation
		if len(j.deps) > 0 {
			ids := make([]provenance.FactID, len(j.deps))
			for i, l := range j.deps {
				ids[i] = literalID(l)
			}
			en.Deps = ids
		}
		en.Checks = j.checks
	}
	e.prov.Record(en)
}

// litIn reports whether l is one of the literals in ls. Dependency
// bodies hold at most a handful of literals, so a linear scan wins.
func litIn(ls []Literal, l Literal) bool {
	for _, x := range ls {
		if x == l {
			return true
		}
	}
	return false
}

// buildJust captures the evidence of the current complete valuation: the
// rule, the bound tuple ids, the dynamic body predicates satisfied
// through Γ (deps), and the ML outcomes consumed from the classifiers
// (checks). It runs inside emit, after the unsatisfied literals of the
// valuation were collected into c.unsat, and re-derives nothing: a
// static ML predicate is positive by construction of the binding
// (checkNewBinding enforced it), and a dynamic id or ML predicate is
// satisfied exactly when its literal is absent from c.unsat — so
// capture costs no union-find or pair-cache probes. Unsatisfied
// predicates contribute nothing; they form the body of the dependency
// parked in H and join the justification when it fires.
func (c *evalCtx) buildJust() *justification {
	br, binding, ar, unsat := c.br, c.binding, &c.arena, c.unsat
	j := ar.alloc()
	j.origin = provenance.OriginRule
	j.rule = br.r.Name
	vstart := len(ar.vals)
	for _, t := range binding {
		ar.vals = append(ar.vals, t.GID)
	}
	j.valuation = ar.vals[vstart:len(ar.vals):len(ar.vals)]
	dstart := len(ar.deps)
	for _, p := range br.ids {
		ta, tb := binding[p.V1], binding[p.V2]
		if ta == tb {
			continue
		}
		x, y := ta.GID, tb.GID
		if y < x {
			x, y = y, x
		}
		l := matchLit(x, y)
		if litIn(unsat, l) {
			continue
		}
		ar.deps = append(ar.deps, l)
	}
	cstart := len(ar.checks)
	for i := range br.mls {
		m := &br.mls[i]
		p := m.pred
		ta, tb := binding[p.V1], binding[p.V2]
		if m.dynamic {
			l := mlLit(m.model, ta.GID, tb.GID)
			if c.e.validated[l] {
				ar.deps = append(ar.deps, l)
				continue
			}
			if litIn(unsat, l) {
				continue
			}
		}
		ar.checks = append(ar.checks, provenance.MLCheck{Model: p.Model, A: ta.GID, B: tb.GID, Positive: true})
	}
	if dstart < len(ar.deps) {
		j.deps = ar.deps[dstart:len(ar.deps):len(ar.deps)]
	}
	if cstart < len(ar.checks) {
		j.checks = ar.checks[cstart:len(ar.checks):len(ar.checks)]
	}
	return j
}

// Provenance returns the engine's justification log (nil when capture is
// off).
func (e *Engine) Provenance() *provenance.Log { return e.prov }

// BaseEquivalence returns the pre-chase id equivalence of the engine's
// dataset — literal id-value duplicates merged, no deduced matches — the
// base a proof extraction replays recorded entries on top of.
func (e *Engine) BaseEquivalence() *unionfind.UnionFind {
	return BuildEquivalence(e.d, nil)
}

// Proof extracts a justification of the pair (a, b) from the engine's
// log: a minimal subsequence of recorded derivations, in derivation
// order, sufficient to match the pair. It returns
// provenance.ErrNotEntailed when the pair is not matched and
// provenance.ErrIncomplete when capture was off or the log overflowed.
func (e *Engine) Proof(a, b relation.TID) ([]provenance.Entry, error) {
	return e.prov.Proof([2]relation.TID{a, b}, e.BaseEquivalence())
}
