// Package chase implements the sequential deep-and-collective ER engine
// Match of Section V-A: chasing a dataset with a set Σ of MRLs to a
// fixpoint Γ of matches and validated ML predictions, via one full
// deduction pass (Deduce) followed by update-driven incremental passes
// (IncDeduce) using a bounded dependency store H and the id-equivalence
// relation E_id.
package chase

import (
	"fmt"

	"dcer/internal/relation"
)

// FactKind discriminates the two kinds of facts in Γ.
type FactKind uint8

const (
	// FactMatch is an id match (t.id, s.id).
	FactMatch FactKind = iota
	// FactML is a validated ML prediction M(t[Ā], s[B̄]).
	FactML
)

// Fact is one element of Γ: either a match between two tuples or a
// validated ML prediction. Facts are exchanged verbatim between workers in
// the parallel engine, so they reference tuples by global id only.
type Fact struct {
	Kind  FactKind
	A, B  relation.TID
	Model string // classifier name; FactML only
}

// MatchFact builds a canonical (A ≤ B) id-match fact.
func MatchFact(a, b relation.TID) Fact {
	if b < a {
		a, b = b, a
	}
	return Fact{Kind: FactMatch, A: a, B: b}
}

// MLFact builds a validated-prediction fact. ML predicates are not assumed
// symmetric, so the pair keeps its order.
func MLFact(model string, a, b relation.TID) Fact {
	return Fact{Kind: FactML, A: a, B: b, Model: model}
}

// String renders the fact for logs and tests.
func (f Fact) String() string {
	if f.Kind == FactMatch {
		return fmt.Sprintf("(%d.id = %d.id)", f.A, f.B)
	}
	return fmt.Sprintf("%s(%d, %d)", f.Model, f.A, f.B)
}

// Gamma is the deduced set Γ: the id-equivalence relation over tuples plus
// the validated ML predictions. See Engine for the full state.
type Gamma struct {
	// Matches lists the deduced non-trivial match facts in deduction
	// order (reflexive matches (t,t) are implicit).
	Matches []Fact
	// Validated lists the validated ML predictions in deduction order.
	Validated []Fact
}

// Size returns |Γ| excluding the implicit reflexive matches.
func (g *Gamma) Size() int { return len(g.Matches) + len(g.Validated) }
