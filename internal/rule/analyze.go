package rule

import (
	"fmt"
	"slices"
	"sort"
)

// VarAttr addresses one attribute occurrence var.attr within a rule, by
// resolved positions.
type VarAttr struct {
	Var  int
	Attr int
}

// DistinctVar is one "distinct variable" of a rule in the Hypercube sense
// (Section IV): an equivalence class of attribute occurrences x.A such
// that equality between members is implied by the rule's equality
// predicates. Id attributes and ML attribute vectors form their own
// classes (the paper's slight extension of Afrati–Ullman distinct
// variables), which is what guarantees all candidate pairs for id and ML
// predicates meet on some worker (Lemma 6).
type DistinctVar struct {
	// Members lists the attribute occurrences in the class. For ML
	// classes the Attr is the first attribute of the vector and MLVec
	// holds the full vector.
	Members []VarAttr
	// MLVec is non-nil when the class is an ML attribute vector.
	MLVec []int
	// ID is true when the class is an id-attribute class. Id classes get
	// one dimension per variable side (never merged), so every candidate
	// tuple pair for an id predicate meets on some worker even when the
	// literal id values differ — each side hashes its own dimension and
	// broadcasts over the other's.
	ID bool
	// Const is true when the class is pinned by a constant predicate.
	Const bool
}

// AttrOf returns the attribute index of the class member on variable v and
// whether one exists.
func (d *DistinctVar) AttrOf(v int) (int, bool) {
	for _, m := range d.Members {
		if m.Var == v {
			return m.Attr, true
		}
	}
	return -1, false
}

// DistinctVars computes the distinct variables of a resolved rule,
// deterministically ordered: equality classes first (by smallest member),
// then id classes, then ML classes.
func DistinctVars(r *Rule) ([]*DistinctVar, error) {
	if !r.Resolved() {
		return nil, fmt.Errorf("rule %s: DistinctVars requires a resolved rule", r.Name)
	}
	// Union-find over attribute occurrences mentioned in equality and
	// constant predicates.
	parent := make(map[VarAttr]VarAttr)
	var find func(VarAttr) VarAttr
	find = func(x VarAttr) VarAttr {
		p, ok := parent[x]
		if !ok {
			parent[x] = x
			return x
		}
		if p == x {
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	union := func(a, b VarAttr) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	constClasses := make(map[VarAttr]bool)
	for i := range r.Body {
		p := &r.Body[i]
		switch p.Kind {
		case PredEq:
			union(VarAttr{p.V1, p.A1}, VarAttr{p.V2, p.A2})
		case PredConst:
			find(VarAttr{p.V1, p.A1})
			constClasses[find(VarAttr{p.V1, p.A1})] = true
		}
	}
	groups := make(map[VarAttr][]VarAttr)
	for x := range parent {
		root := find(x)
		groups[root] = append(groups[root], x)
	}
	var out []*DistinctVar
	roots := make([]VarAttr, 0, len(groups))
	for root := range groups {
		roots = append(roots, root)
	}
	sort.Slice(roots, func(i, j int) bool {
		members := func(r VarAttr) VarAttr {
			ms := groups[r]
			min := ms[0]
			for _, m := range ms[1:] {
				if m.Var < min.Var || m.Var == min.Var && m.Attr < min.Attr {
					min = m
				}
			}
			return min
		}
		a, b := members(roots[i]), members(roots[j])
		return a.Var < b.Var || a.Var == b.Var && a.Attr < b.Attr
	})
	for _, root := range roots {
		ms := groups[root]
		sort.Slice(ms, func(i, j int) bool {
			return ms[i].Var < ms[j].Var || ms[i].Var == ms[j].Var && ms[i].Attr < ms[j].Attr
		})
		out = append(out, &DistinctVar{Members: ms, Const: constClasses[root]})
	}
	// Id classes: one per tuple variable mentioned in an id predicate
	// (body or head), keyed by the variable's resolved id attribute. Not
	// merged with equality classes: id equality can be *deduced*, so all
	// candidate pairs must meet regardless of literal attribute values.
	idVars := make(map[int]int) // var -> id attribute position
	collectID := func(p *Pred) {
		if p.Kind == PredID {
			idVars[p.V1] = p.A1
			idVars[p.V2] = p.A2
		}
	}
	for i := range r.Body {
		collectID(&r.Body[i])
	}
	collectID(&r.Head)
	idList := make([]int, 0, len(idVars))
	for v := range idVars {
		idList = append(idList, v)
	}
	sort.Ints(idList)
	for _, v := range idList {
		out = append(out, &DistinctVar{Members: []VarAttr{{Var: v, Attr: idVars[v]}}, ID: true})
	}
	// ML classes: one per ML-atom side.
	collectML := func(p *Pred) {
		if p.Kind == PredML {
			out = append(out,
				&DistinctVar{Members: []VarAttr{{Var: p.V1, Attr: p.A1Vec[0]}}, MLVec: append([]int(nil), p.A1Vec...)},
				&DistinctVar{Members: []VarAttr{{Var: p.V2, Attr: p.A2Vec[0]}}, MLVec: append([]int(nil), p.A2Vec...)})
		}
	}
	for i := range r.Body {
		collectML(&r.Body[i])
	}
	collectML(&r.Head)
	return out, nil
}

// Class describes the structural classification of an MRL per Section III:
// Deep means the precondition carries id (or validated-ML) predicates, so
// the rule can use matches deduced in earlier rounds; Collective means the
// rule spans more than two tuple variables (the MD limit).
type Class struct {
	Deep       bool
	Collective bool
	NumVars    int
	NumRels    int
}

// Classify inspects a rule's shape.
func Classify(r *Rule) Class {
	c := Class{NumVars: len(r.Vars)}
	rels := make(map[string]bool)
	for _, v := range r.Vars {
		rels[v.Rel] = true
	}
	c.NumRels = len(rels)
	for i := range r.Body {
		if r.Body[i].Kind == PredID || r.Body[i].Kind == PredML {
			c.Deep = true
		}
	}
	c.Collective = len(r.Vars) > 2
	return c
}

// MaxVars returns |Σ|: the maximum number of tuple variables over the
// rules (used in the paper's complexity bounds).
func MaxVars(rules []*Rule) int {
	max := 0
	for _, r := range rules {
		if len(r.Vars) > max {
			max = len(r.Vars)
		}
	}
	return max
}

// FilterCollectiveOnly returns the subset of rules without id predicates
// in their preconditions — the rule set DMatch_C runs (collective ER, not
// deep).
func FilterCollectiveOnly(rules []*Rule) []*Rule {
	var out []*Rule
	for _, r := range rules {
		deep := false
		for i := range r.Body {
			if r.Body[i].Kind == PredID {
				deep = true
				break
			}
		}
		if !deep {
			out = append(out, r)
		}
	}
	return out
}

// FilterDeepOnly returns the subset of rules with at most maxVars tuple
// variables — the rule set DMatch_D runs (deep ER with bounded arity; the
// paper uses 4).
func FilterDeepOnly(rules []*Rule, maxVars int) []*Rule {
	var out []*Rule
	for _, r := range rules {
		if len(r.Vars) <= maxVars {
			out = append(out, r)
		}
	}
	return out
}

// maxSymmetryVars bounds the brute-force search of Symmetry: a rule with
// more tuple variables is left unreduced.
const maxSymmetryVars = 8

// Symmetry returns a variable involution σ (σ[v] is the image of variable
// v, σ∘σ = id) under which the rule is its own mirror image, or nil when
// no such σ exists. σ swaps only variables of the same relation, maps the
// two sides of the head onto each other (the head must be an id predicate
// over two distinct variables), and leaves the body invariant as a set:
// equalities and id predicates are unordered, a constant moves with its
// variable, and an ML predicate M(a[Ā], b[B̄]) must land on a body
// predicate M(σa[Ā], σb[B̄]) or on its mirror M(σb[B̄], σa[Ā]).
//
// symmetricML reports whether a model's answer is a fixed, symmetric
// function of the tuple pair — false for asymmetric classifiers and for
// models some rule head can validate, whose truth is directional. A rule
// carrying an ML predicate over any other model has no symmetry.
//
// For such a rule every valuation h has a twin h∘σ that satisfies the
// body exactly when h does and derives the same head fact and the same
// dependency, so an enumeration may keep one of each pair (DESIGN.md §6).
func Symmetry(r *Rule, symmetricML func(model string) bool) []int {
	n := len(r.Vars)
	h := &r.Head
	if h.Kind != PredID || h.V1 == h.V2 || n > maxSymmetryVars ||
		r.Vars[h.V1].RelIdx != r.Vars[h.V2].RelIdx {
		return nil
	}
	for i := range r.Body {
		if p := &r.Body[i]; p.Kind == PredML && !symmetricML(p.Model) {
			return nil
		}
	}
	sigma := make([]int, n)
	for v := range sigma {
		sigma[v] = -1
	}
	sigma[h.V1], sigma[h.V2] = h.V2, h.V1
	// Assign the remaining variables in order: each is a fixed point or
	// swaps with a later unassigned variable of its relation.
	var search func(v int) bool
	search = func(v int) bool {
		for v < n && sigma[v] >= 0 {
			v++
		}
		if v == n {
			return bodyInvariant(r, sigma)
		}
		sigma[v] = v
		if search(v + 1) {
			return true
		}
		for w := v + 1; w < n; w++ {
			if sigma[w] >= 0 || r.Vars[w].RelIdx != r.Vars[v].RelIdx {
				continue
			}
			sigma[v], sigma[w] = w, v
			if search(v + 1) {
				return true
			}
			sigma[w] = -1
		}
		sigma[v] = -1
		return false
	}
	if !search(0) {
		return nil
	}
	return sigma
}

// bodyInvariant reports whether every body predicate's image under sigma
// is again a body predicate. sigma permutes the predicates injectively,
// so this makes the body, as a set, equal to its image.
func bodyInvariant(r *Rule, sigma []int) bool {
	for i := range r.Body {
		p := &r.Body[i]
		found := false
		for j := range r.Body {
			if mirrors(p, &r.Body[j], sigma) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// mirrors reports whether q is the image of p under sigma.
func mirrors(p, q *Pred, sigma []int) bool {
	if p.Kind != q.Kind {
		return false
	}
	v1, v2 := sigma[p.V1], sigma[p.V2]
	switch p.Kind {
	case PredConst:
		// Same relation, hence same attribute type: equal surface text is
		// the same typed constant.
		return q.V1 == v1 && q.A1 == p.A1 && q.ConstText == p.ConstText
	case PredEq:
		return q.V1 == v1 && q.A1 == p.A1 && q.V2 == v2 && q.A2 == p.A2 ||
			q.V1 == v2 && q.A1 == p.A2 && q.V2 == v1 && q.A2 == p.A1
	case PredID:
		return q.V1 == v1 && q.V2 == v2 || q.V1 == v2 && q.V2 == v1
	case PredML:
		if q.Model != p.Model {
			return false
		}
		return q.V1 == v1 && q.V2 == v2 && slices.Equal(q.A1Vec, p.A1Vec) && slices.Equal(q.A2Vec, p.A2Vec) ||
			q.V1 == v2 && q.V2 == v1 && slices.Equal(q.A1Vec, p.A2Vec) && slices.Equal(q.A2Vec, p.A1Vec)
	}
	return false
}
