// Package chase implements the sequential deep-and-collective ER engine
// Match of Section V-A: chasing a dataset with a set Σ of MRLs to a
// fixpoint Γ of matches and validated ML predictions, via one full
// deduction pass (Deduce) followed by update-driven incremental passes
// (IncDeduce) over the id-equivalence relation E_id. The pass binds id
// predicates through E_id's classes, so a valuation reaches the head only
// when its id literals hold; the update-driven passes re-inspect the
// valuations a new fact touches, which subsumes the paper's dependency
// store H.
package chase

import (
	"fmt"
	"sync"
	"sync/atomic"

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

// Literal is one id or ML literal: the key of Γ's validated set and the
// prerequisite-fact form of a justification. The classifier name of an ML
// literal is held as an index into the process-wide model table, so the
// validated set keys on it without hashing a string.
type Literal struct {
	A, B  relation.TID
	model uint16
	Kind  FactKind
}

// mlLit builds an ML-prediction literal over an interned model name.
func mlLit(model uint16, a, b relation.TID) Literal {
	return Literal{Kind: FactML, A: a, B: b, model: model}
}

// matchLit builds an id-match literal.
func matchLit(a, b relation.TID) Literal {
	return Literal{Kind: FactMatch, A: a, B: b}
}

// ModelName resolves the classifier name of an ML literal ("" for a
// match literal).
func (l Literal) ModelName() string { return modelName(l.model) }

// modelTab interns ML model names process-wide. A ruleset references a
// handful of classifiers, so the table stays tiny and is never pruned.
// Names are interned at the boundaries (rule binding, facts entering Γ);
// resolving one reads an atomically published slice, never the lock.
var modelTab = struct {
	mu    sync.Mutex
	idx   map[string]uint16
	names atomic.Pointer[[]string]
}{idx: map[string]uint16{"": 0}}

func init() {
	names := []string{""}
	modelTab.names.Store(&names)
}

func internModel(s string) uint16 {
	if s == "" {
		return 0
	}
	modelTab.mu.Lock()
	defer modelTab.mu.Unlock()
	if i, ok := modelTab.idx[s]; ok {
		return i
	}
	old := *modelTab.names.Load()
	i := uint16(len(old))
	modelTab.idx[s] = i
	next := append(append(make([]string, 0, len(old)+1), old...), s)
	modelTab.names.Store(&next)
	return i
}

func modelName(i uint16) string { return (*modelTab.names.Load())[i] }
