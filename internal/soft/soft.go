// Package soft implements the paper's first future-work item: extending
// MRLs to *soft rules* that return the probability of a match instead of a
// hard decision.
//
// Each rule carries a confidence in (0, 1]. The engine computes, for every
// tuple pair, a match score under max-product semantics (the tropical
// semiring commonly used for probabilistic provenance): the score of a
// derivation is the rule's confidence times the product of the scores of
// the id predicates it consumes, and a fact's score is the maximum over
// its derivations. Transitivity contributes score(x,z) ≥ score(x,y) ·
// score(y,z). The fixpoint exists and is order-independent because all
// updates are monotone under max and scores are bounded by 1.
//
// With every confidence equal to 1 the engine coincides with the crisp
// chase. Thresholding the final scores turns the result back into hard
// matches, with the threshold trading precision for recall.
package soft

import (
	"fmt"
	"sort"

	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

// Rule is an MRL with a confidence.
type Rule struct {
	*rule.Rule
	Confidence float64
}

// Score is one scored match pair.
type Score struct {
	A, B relation.TID
	P    float64
}

// Result holds the fixpoint scores.
type Result struct {
	scores map[[2]relation.TID]float64
	d      *relation.Dataset
}

// P returns the match score of (a, b); 1 for a tuple with itself.
func (r *Result) P(a, b relation.TID) float64 {
	if a == b {
		return 1
	}
	return r.scores[canon(a, b)]
}

// Matches returns all pairs with score ≥ threshold, sorted by descending
// score then pair.
func (r *Result) Matches(threshold float64) []Score {
	var out []Score
	for p, s := range r.scores {
		if s >= threshold {
			out = append(out, Score{A: p[0], B: p[1], P: s})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].P != out[j].P {
			return out[i].P > out[j].P
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

func canon(a, b relation.TID) [2]relation.TID {
	if b < a {
		a, b = b, a
	}
	return [2]relation.TID{a, b}
}

// Chase runs the soft fixpoint. epsilon bounds the score improvement below
// which updates are ignored (guards convergence with cyclic rule sets);
// 0 means 1e-9.
func Chase(d *relation.Dataset, rules []Rule, reg *mlpred.Registry, epsilon float64) (*Result, error) {
	if epsilon <= 0 {
		epsilon = 1e-9
	}
	res := &Result{scores: make(map[[2]relation.TID]float64), d: d}
	for _, r := range rules {
		if !r.Resolved() {
			return nil, fmt.Errorf("soft: rule %s not resolved", r.Name)
		}
		if r.Confidence <= 0 || r.Confidence > 1 {
			return nil, fmt.Errorf("soft: rule %s confidence %v outside (0,1]", r.Name, r.Confidence)
		}
		if r.Head.Kind != rule.PredID {
			return nil, fmt.Errorf("soft: rule %s: soft chase supports id heads only", r.Name)
		}
	}
	// Literal id duplicates score 1.
	for _, rel := range d.Relations {
		byID := make(map[string]relation.TID)
		for _, t := range rel.Tuples {
			k := t.Val(rel.Schema.IDAttr).Key()
			if first, ok := byID[k]; ok {
				res.scores[canon(first, t.GID)] = 1
			} else {
				byID[k] = t.GID
			}
		}
	}
	cache := mlpred.NewCache()
	classifiers := make([]map[*rule.Pred]mlpred.Classifier, len(rules))
	for ri, r := range rules {
		classifiers[ri] = make(map[*rule.Pred]mlpred.Classifier)
		for i := range r.Body {
			p := &r.Body[i]
			if p.Kind == rule.PredML {
				cl, err := reg.Get(p.Model)
				if err != nil {
					return nil, err
				}
				classifiers[ri][p] = cl
			}
		}
	}

	score := func(a, b relation.TID) float64 {
		if a == b {
			return 1
		}
		return res.scores[canon(a, b)]
	}
	improve := func(a, b relation.TID, p float64) bool {
		if a == b || p <= 0 {
			return false
		}
		k := canon(a, b)
		if p > res.scores[k]+epsilon {
			res.scores[k] = p
			return true
		}
		return false
	}

	for round := 0; ; round++ {
		progressed := false
		// Rule applications (brute-force valuation walk with static
		// pruning; the soft engine targets moderate data sizes).
		for ri, r := range rules {
			binding := make([]*relation.Tuple, len(r.Vars))
			var walk func(v int)
			apply := func() {
				p := r.Confidence
				for i := range r.Body {
					pd := &r.Body[i]
					switch pd.Kind {
					case rule.PredConst:
						if !binding[pd.V1].Val(pd.A1).Equal(pd.Const) {
							return
						}
					case rule.PredEq:
						if !binding[pd.V1].Val(pd.A1).Equal(binding[pd.V2].Val(pd.A2)) {
							return
						}
					case rule.PredID:
						s := score(binding[pd.V1].GID, binding[pd.V2].GID)
						if s <= 0 {
							return
						}
						p *= s
					case rule.PredML:
						la := make([]relation.Value, len(pd.A1Vec))
						for j, at := range pd.A1Vec {
							la[j] = binding[pd.V1].Val(at)
						}
						lb := make([]relation.Value, len(pd.A2Vec))
						for j, at := range pd.A2Vec {
							lb[j] = binding[pd.V2].Val(at)
						}
						if !cache.Predict(classifiers[ri][pd], la, lb) {
							return
						}
					}
				}
				a, b := binding[r.Head.V1], binding[r.Head.V2]
				if a == b {
					return
				}
				if improve(a.GID, b.GID, p) {
					progressed = true
				}
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
		// Soft transitive closure over the currently scored pairs.
		type edge struct {
			to relation.TID
			p  float64
		}
		adj := make(map[relation.TID][]edge)
		for pr, s := range res.scores {
			adj[pr[0]] = append(adj[pr[0]], edge{pr[1], s})
			adj[pr[1]] = append(adj[pr[1]], edge{pr[0], s})
		}
		for _, edges := range adj {
			for i := 0; i < len(edges); i++ {
				for j := i + 1; j < len(edges); j++ {
					p := edges[i].p * edges[j].p
					if improve(edges[i].to, edges[j].to, p) {
						progressed = true
					}
				}
			}
		}
		if !progressed {
			return res, nil
		}
		if round > d.Size()*d.Size() {
			return nil, fmt.Errorf("soft: fixpoint did not converge")
		}
	}
}

// Harden converts scores above threshold into equivalence classes: each
// surviving pair is a hard match.
func (r *Result) Harden(threshold float64) [][]relation.TID {
	parent := make(map[relation.TID]relation.TID)
	var find func(relation.TID) relation.TID
	find = func(x relation.TID) relation.TID {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	for pr, s := range r.scores {
		if s >= threshold {
			parent[find(pr[0])] = find(pr[1])
		}
	}
	groups := make(map[relation.TID][]relation.TID)
	for x := range parent {
		groups[find(x)] = append(groups[find(x)], x)
	}
	var out [][]relation.TID
	for _, g := range groups {
		if len(g) > 1 {
			sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
