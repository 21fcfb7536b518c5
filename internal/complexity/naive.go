// Package complexity provides the theory artifacts of Section III: the
// paper's size bounds, a naive reference chase that tracks justifications
// (usable as a correctness oracle for the optimized engine and as the
// PTIME algorithm for deep ER of Theorem 2(2)), proof graphs with a
// polynomial-time verifier (the NP-membership argument of Theorem 2(1)),
// and the acyclic-case solver of Theorem 3.
package complexity

import (
	"fmt"

	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
	"dcer/internal/unionfind"
)

// Bound returns the paper's bound ‖Σ‖·(|Σ|+1)·|D|² on the number of
// matches and validated ML predictions in Γ, where numRules = ‖Σ‖,
// maxVars = |Σ| (the maximum number of tuple variables of any rule) and
// size = |D|.
func Bound(numRules, maxVars, size int) int {
	return numRules * (maxVars + 1) * size * size
}

// Fact mirrors a deduced fact with its justification: the rule applied and
// the valuation (one tuple per rule variable), plus the body facts (id and
// ML literals) the application consumed. Base equality predicates need no
// justification — they are checkable directly against D.
type Fact struct {
	IsMatch bool
	A, B    relation.TID
	Model   string

	Rule      string
	Valuation []relation.TID
	Body      []int // indexes of earlier facts this application used
}

func (f Fact) key() string {
	if f.IsMatch {
		a, b := f.A, f.B
		if b < a {
			a, b = b, a
		}
		return fmt.Sprintf("m:%d,%d", a, b)
	}
	return fmt.Sprintf("v:%s:%d,%d", f.Model, f.A, f.B)
}

// Result is the output of the naive chase: the ordered list of deduced
// facts (a proof graph in topological order) and the final equivalence
// relation.
type Result struct {
	Facts []Fact
	Eq    *unionfind.UnionFind
	d     *relation.Dataset
}

// Same reports whether (D, Σ) ⊨ (a.id, b.id).
func (r *Result) Same(a, b relation.TID) bool {
	return a == b || r.Eq.Same(int(a), int(b))
}

// Classes returns the non-singleton equivalence classes.
func (r *Result) Classes() [][]relation.TID {
	groups := make(map[int][]relation.TID)
	for _, t := range r.d.Tuples() {
		groups[r.Eq.Find(int(t.GID))] = append(groups[r.Eq.Find(int(t.GID))], t.GID)
	}
	var out [][]relation.TID
	for _, g := range groups {
		if len(g) > 1 {
			out = append(out, g)
		}
	}
	return out
}

// NaiveChase runs the textbook chase to a fixpoint: in every round it
// enumerates every valuation of every rule by brute force and applies all
// enabled rules, recording justifications. Exponential in the number of
// tuple variables but linear rounds — the reference oracle for small
// inputs, and the PTIME deep-ER procedure when the variable count is a
// constant (Theorem 2(2)).
func NaiveChase(d *relation.Dataset, rules []*rule.Rule, reg *mlpred.Registry) (*Result, error) {
	size := 0
	for _, t := range d.Tuples() {
		if int(t.GID)+1 > size {
			size = int(t.GID) + 1
		}
	}
	res := &Result{Eq: unionfind.New(size), d: d}
	// Materialize every tuple's boxed attribute vector once. The naive
	// enumeration evaluates predicates Ω(|D|^(k-1)) times per tuple, so
	// rehydrating values from the packed columns inside the cross
	// product would dominate the run.
	mat := make([][]relation.Value, size)
	for _, t := range d.Tuples() {
		mat[t.GID] = t.Values()
	}
	// Literal id-value duplicates are the same entity by definition.
	for _, rel := range d.Relations {
		byID := make(map[string]relation.TID)
		for _, t := range rel.Tuples {
			k := mat[t.GID][rel.Schema.IDAttr].Key()
			if first, ok := byID[k]; ok {
				res.Eq.Union(int(first), int(t.GID))
			} else {
				byID[k] = t.GID
			}
		}
	}
	validated := make(map[string]int) // fact key -> index in Facts
	cache := mlpred.NewCache()

	type mlBound struct {
		pred *rule.Pred
		cl   mlpred.Classifier
	}
	classifiers := make([][]mlBound, len(rules))
	for ri, r := range rules {
		if !r.Resolved() {
			return nil, fmt.Errorf("complexity: rule %s not resolved", r.Name)
		}
		for i := range r.Body {
			p := &r.Body[i]
			if p.Kind == rule.PredML {
				cl, err := reg.Get(p.Model)
				if err != nil {
					return nil, err
				}
				classifiers[ri] = append(classifiers[ri], mlBound{p, cl})
			}
		}
		if r.Head.Kind == rule.PredML {
			// Resolve eagerly so a missing head classifier fails fast,
			// even though validation itself does not invoke it.
			if _, err := reg.Get(r.Head.Model); err != nil {
				return nil, err
			}
		}
	}

	gather := func(t *relation.Tuple, attrs []int) []relation.Value {
		vs := make([]relation.Value, len(attrs))
		for i, a := range attrs {
			vs[i] = mat[t.GID][a]
		}
		return vs
	}

	for round := 0; ; round++ {
		progressed := false
		for ri, r := range rules {
			binding := make([]*relation.Tuple, len(r.Vars))
			var walk func(v int)
			apply := func() {
				var body []int
				// Check every body predicate under the current Γ.
				for i := range r.Body {
					p := &r.Body[i]
					switch p.Kind {
					case rule.PredConst:
						if !mat[binding[p.V1].GID][p.A1].Equal(p.Const) {
							return
						}
					case rule.PredEq:
						if !mat[binding[p.V1].GID][p.A1].Equal(mat[binding[p.V2].GID][p.A2]) {
							return
						}
					case rule.PredID:
						a, b := binding[p.V1].GID, binding[p.V2].GID
						if a != b && !res.Eq.Same(int(a), int(b)) {
							return
						}
						if a != b {
							if fi, ok := validated[Fact{IsMatch: true, A: a, B: b}.key()]; ok {
								body = append(body, fi)
							} else {
								// The pair is matched transitively; justify
								// with every match fact of the shared class
								// (a sound over-approximation within the
								// small-model bound).
								root := res.Eq.Find(int(a))
								for fi := range res.Facts {
									if res.Facts[fi].IsMatch && res.Eq.Find(int(res.Facts[fi].A)) == root {
										body = append(body, fi)
									}
								}
							}
						}
					case rule.PredML:
						var cl mlpred.Classifier
						for _, mb := range classifiers[ri] {
							if mb.pred == p {
								cl = mb.cl
							}
						}
						a, b := binding[p.V1], binding[p.V2]
						k := Fact{IsMatch: false, Model: p.Model, A: a.GID, B: b.GID}.key()
						if fi, ok := validated[k]; ok {
							body = append(body, fi)
							continue
						}
						// Not validated in Γ: the predicate holds only if
						// the classifier itself predicts true. (A later
						// round may validate it via a rule head, and the
						// fixpoint loop re-enumerates every round.)
						if !cache.Predict(cl, gather(a, p.A1Vec), gather(b, p.A2Vec)) {
							return
						}
					}
				}
				// Apply the head.
				h := &r.Head
				a, b := binding[h.V1], binding[h.V2]
				if a == b {
					return
				}
				var f Fact
				if h.Kind == rule.PredID {
					if res.Eq.Same(int(a.GID), int(b.GID)) {
						return
					}
					f = Fact{IsMatch: true, A: a.GID, B: b.GID}
					res.Eq.Union(int(a.GID), int(b.GID))
				} else {
					f = Fact{IsMatch: false, Model: h.Model, A: a.GID, B: b.GID}
					if _, ok := validated[f.key()]; ok {
						return
					}
				}
				f.Rule = r.Name
				f.Valuation = make([]relation.TID, len(binding))
				for i, t := range binding {
					f.Valuation[i] = t.GID
				}
				f.Body = body
				validated[f.key()] = len(res.Facts)
				res.Facts = append(res.Facts, f)
				progressed = true
			}
			walk = func(v int) {
				if v == len(r.Vars) {
					apply()
					return
				}
				for _, t := range d.Relations[r.Vars[v].RelIdx].Tuples {
					binding[v] = t
					walk(v + 1)
				}
			}
			walk(0)
		}
		if !progressed {
			break
		}
		if round > Bound(len(rules), rule.MaxVars(rules), size) {
			return nil, fmt.Errorf("complexity: chase exceeded the theoretical bound; non-terminating?")
		}
	}
	return res, nil
}

// SolveAcyclic is the tractable-case solver of Theorem 3: it verifies
// every rule's precondition hypergraph is acyclic and then chases. (The
// chase itself is shared; acyclicity is what bounds the valuation
// enumeration polynomially via join trees.)
func SolveAcyclic(d *relation.Dataset, rules []*rule.Rule, reg *mlpred.Registry) (*Result, error) {
	for _, r := range rules {
		ok, err := rule.IsAcyclic(r)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("complexity: rule %s is cyclic; Theorem 3 does not apply", r.Name)
		}
	}
	return NaiveChase(d, rules, reg)
}
