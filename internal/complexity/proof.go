package complexity

import (
	"fmt"

	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
	"dcer/internal/unionfind"
)

// VerifyProof is the polynomial-time verifier behind the NP-membership
// argument of Theorem 2(1): given a candidate proof graph — a sequence of
// facts in topological order, each carrying the rule and valuation that
// derives it — it checks that every step is a sound rule application under
// the Γ built from the preceding steps, and that the target match is
// entailed at the end. It is deliberately implemented independently of
// NaiveChase so that the two cross-validate each other in tests.
//
// The verifier runs in time polynomial in |proof| + |D| + ‖Σ‖, matching
// the small-model property: a valid proof of size ‖Σ‖(|Σ|+1)|D|² exists
// iff (D, Σ) ⊨ (target[0].id, target[1].id).
func VerifyProof(d *relation.Dataset, rules []*rule.Rule, reg *mlpred.Registry, proof []Fact, target [2]relation.TID) (bool, error) {
	byName := make(map[string]*rule.Rule, len(rules))
	for _, r := range rules {
		byName[r.Name] = r
	}
	size := 0
	for _, t := range d.Tuples() {
		if int(t.GID)+1 > size {
			size = int(t.GID) + 1
		}
	}
	eq := unionfind.New(size)
	for ri, rel := range d.Relations {
		byID := make(map[string]relation.TID)
		for _, t := range d.Relations[ri].Tuples {
			k := t.Val(rel.Schema.IDAttr).Key()
			if first, ok := byID[k]; ok {
				eq.Union(int(first), int(t.GID))
			} else {
				byID[k] = t.GID
			}
		}
	}
	validated := make(map[string]bool)
	cache := mlpred.NewCache()

	for step, f := range proof {
		r, ok := byName[f.Rule]
		if !ok {
			return false, fmt.Errorf("complexity: step %d uses unknown rule %q", step, f.Rule)
		}
		if len(f.Valuation) != len(r.Vars) {
			return false, fmt.Errorf("complexity: step %d: valuation arity %d, rule %s needs %d",
				step, len(f.Valuation), r.Name, len(r.Vars))
		}
		binding := make([]*relation.Tuple, len(r.Vars))
		for i, gid := range f.Valuation {
			t := d.Tuple(gid)
			if t == nil {
				return false, fmt.Errorf("complexity: step %d references missing tuple %d", step, gid)
			}
			if t.Rel != r.Vars[i].RelIdx {
				return false, fmt.Errorf("complexity: step %d binds %s-variable to a tuple of relation %d",
					step, r.Vars[i].Rel, t.Rel)
			}
			binding[i] = t
		}
		okStep, err := checkBody(r, reg, cache, eq, validated, binding)
		if err != nil {
			return false, fmt.Errorf("complexity: step %d: %w", step, err)
		}
		if !okStep {
			return false, fmt.Errorf("complexity: step %d: precondition of %s not satisfied", step, r.Name)
		}
		h := &r.Head
		a, b := binding[h.V1], binding[h.V2]
		if h.Kind == rule.PredID {
			if !f.IsMatch || !sameTID(f.A, f.B, a.GID, b.GID) {
				return false, fmt.Errorf("complexity: step %d: head mismatch", step)
			}
			eq.Union(int(a.GID), int(b.GID))
		} else {
			if f.IsMatch || f.Model != h.Model || !sameTID(f.A, f.B, a.GID, b.GID) {
				return false, fmt.Errorf("complexity: step %d: head mismatch", step)
			}
			validated[f.key()] = true
		}
	}
	return target[0] == target[1] || eq.Same(int(target[0]), int(target[1])), nil
}

func sameTID(a, b, x, y relation.TID) bool {
	return a == x && b == y || a == y && b == x
}

// checkBody verifies every precondition predicate of r under the valuation
// binding, the current equivalence relation and validated predictions.
func checkBody(r *rule.Rule, reg *mlpred.Registry, cache *mlpred.Cache,
	eq *unionfind.UnionFind, validated map[string]bool, binding []*relation.Tuple) (bool, error) {
	for i := range r.Body {
		p := &r.Body[i]
		switch p.Kind {
		case rule.PredConst:
			if !binding[p.V1].Val(p.A1).Equal(p.Const) {
				return false, nil
			}
		case rule.PredEq:
			if !binding[p.V1].Val(p.A1).Equal(binding[p.V2].Val(p.A2)) {
				return false, nil
			}
		case rule.PredID:
			a, b := binding[p.V1].GID, binding[p.V2].GID
			if a != b && !eq.Same(int(a), int(b)) {
				return false, nil
			}
		case rule.PredML:
			a, b := binding[p.V1], binding[p.V2]
			if validated[Fact{Model: p.Model, A: a.GID, B: b.GID}.key()] {
				continue
			}
			cl, err := reg.Get(p.Model)
			if err != nil {
				return false, err
			}
			la := make([]relation.Value, len(p.A1Vec))
			for j, at := range p.A1Vec {
				la[j] = a.Val(at)
			}
			lb := make([]relation.Value, len(p.A2Vec))
			for j, at := range p.A2Vec {
				lb[j] = b.Val(at)
			}
			if !cache.Predict(cl, la, lb) {
				return false, nil
			}
		}
	}
	return true, nil
}

// ProofOf extracts from a chase result the minimal proof sub-sequence that
// derives the target match: the facts reachable backwards from any fact
// chain merging the target pair. It returns nil when the target is not
// entailed.
func ProofOf(res *Result, target [2]relation.TID) []Fact {
	if !res.Same(target[0], target[1]) {
		return nil
	}
	// Collect all match facts; replay unions to find which facts
	// contributed to the target's class, then close backwards over
	// justifications. Keeping every match fact of the class is within the
	// small-model bound and always sound.
	need := make(map[int]bool)
	root := res.Eq.Find(int(target[0]))
	for i, f := range res.Facts {
		if f.IsMatch && res.Eq.Find(int(f.A)) == root {
			need[i] = true
		}
	}
	// Backward closure over body justifications.
	for {
		grew := false
		for i := range need {
			for _, b := range res.Facts[i].Body {
				if !need[b] {
					need[b] = true
					grew = true
				}
			}
		}
		if !grew {
			break
		}
	}
	var proof []Fact
	remap := make(map[int]int)
	for i, f := range res.Facts {
		if need[i] {
			nf := f
			nf.Body = nil
			for _, b := range f.Body {
				nf.Body = append(nf.Body, remap[b])
			}
			remap[i] = len(proof)
			proof = append(proof, nf)
		}
	}
	return proof
}
