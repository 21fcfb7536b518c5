package chase

// Join orders: every bound rule carries one static variable order per way
// an enumeration of it can start (its seed pattern), planned once at bind
// time from index statistics, each step with the one access it makes per
// enumeration node (Section V-A's per-rule query plan over the shared
// inverted indexes; HyperBlocker likewise fixes its plans before
// execution). An id predicate with one side bound binds the other side
// from the bound tuple's E_id class, so a valuation reaches emit only when
// its id literals hold. The order changes the sequence in which a rule
// emits its valuations, never their set.

import (
	"math/bits"
	"slices"

	"dcer/internal/relation"
	"dcer/internal/rule"
)

// joinStep binds one variable through one access path.
type joinStep struct {
	v    int
	path accessPath // apScan, apEq, apConst or apClass
	// pred is the equality, constant or id predicate the access answers;
	// the variable's program skips it, since every candidate satisfies it
	// by construction.
	pred *rule.Pred

	// apClass: from is the bound side of the id predicate, whose class
	// the candidates are.
	// apEq: ix indexes (v's relation, the equality's attribute of v) and is
	// probed with bound variable from's attribute fromAttr; km, when the
	// index keys each tuple uniquely, answers the probe from an array
	// instead (relation.KeyMap). float marks a float key, whose NaN words
	// find nothing.
	from, fromAttr int
	ix             *relation.Index
	km             *relation.KeyMap
	float          bool

	konst *wordPred // apConst: the constant's step, with its probe word and index
}

// joinOrder is the planned order for the rule variables left unbound by
// the seed pattern bound (a bit per variable).
type joinOrder struct {
	bound uint64
	steps []joinStep
}

// maxRuleVars bounds a rule's variables by the width of a seed pattern.
const maxRuleVars = 64

// planOrders plans br's join orders for every seed pattern its
// enumerations start from — none (the order that ranks the variables for
// the seed pass and that PlanReport shows), each single variable, and the
// two variables of each id and dynamic ML predicate (the drain's seeded
// re-enumerations) — and the seed pass's orders: for the variable ranked
// r, seeds[r] binds it through its root access (the step it takes with
// nothing bound: a constant's posting or a scan), then follows its
// single-variable order. The planner is greedy over the bound set alone,
// so seeds[0] is orders[0], and the seed pass at epoch 0 walks exactly
// orders[0].
func (br *boundRule) planOrders() {
	patterns := []uint64{0}
	add := func(m uint64) {
		if !slices.Contains(patterns, m) {
			patterns = append(patterns, m)
		}
	}
	for v := range br.r.Vars {
		add(1 << v)
	}
	for _, p := range br.ids {
		add(1<<p.V1 | 1<<p.V2)
	}
	for i := range br.mls {
		if m := &br.mls[i]; m.dynamic {
			add(1<<m.pred.V1 | 1<<m.pred.V2)
		}
	}
	br.orders = make([]joinOrder, len(patterns))
	for i, m := range patterns {
		br.orders[i] = br.planOrder(m, nil)
	}
	br.seeds = make([]joinOrder, len(br.r.Vars))
	for r, st := range br.orders[0].steps {
		root, _, _ := br.bestAccess(st.v, 0)
		br.seeds[r].steps = append([]joinStep{root}, br.orderFor(1<<st.v).steps...)
	}
}

// orderFor returns the join order planned for seed pattern bound.
func (br *boundRule) orderFor(bound uint64) *joinOrder {
	for i := range br.orders {
		if br.orders[i].bound == bound {
			return &br.orders[i]
		}
	}
	panic("chase: no join order planned for an enumeration's seed pattern")
}

// planOrder plans the order of the variables outside bound. With seq nil
// it is greedy, cheapest estimate first within the first non-empty class
// of:
//  1. variables an id predicate, an equality or a constant reaches from a
//     bound one: the estimate is 1 for the E_id class (classes are
//     near-singletons when the plan is made), v's relation size over the
//     probed index's distinct keys, or the constant's exact posting length;
//  2. variables a similarity join reaches from a bound one;
//  3. the rest, by relation size (a scan);
//
// ties going to the lower variable index. seq forces the sequence instead
// (tests); each step still takes its cheapest access. An equality into a
// unique index reads its key map.
func (br *boundRule) planOrder(bound uint64, seq []int) joinOrder {
	n := len(br.r.Vars)
	o := joinOrder{bound: bound, steps: make([]joinStep, 0, n-bits.OnesCount64(bound))}
	for len(o.steps) < cap(o.steps) {
		var best joinStep
		bestClass, bestEst := 4, 0.0
		for v := 0; v < n; v++ {
			if bound&(1<<v) != 0 {
				continue
			}
			if seq != nil && v != seq[len(o.steps)] {
				continue
			}
			st, class, est := br.bestAccess(v, bound)
			if class < bestClass || class == bestClass && est < bestEst {
				best, bestClass, bestEst = st, class, est
			}
		}
		if best.path == apEq {
			best.km = br.ix.KeyMap(br.r.Vars[best.from].RelIdx, best.fromAttr, best.ix.Rel, best.ix.Attr)
		}
		o.steps = append(o.steps, best)
		bound |= 1 << best.v
	}
	return o
}

// bestAccess returns v's cheapest access given the bound variables, its
// planning class and its estimated candidate count (see planOrder). A
// class access wins ties.
func (br *boundRule) bestAccess(v int, bound uint64) (joinStep, int, float64) {
	rel := br.r.Vars[v].RelIdx
	size := float64(len(br.scope.Relations[rel].Tuples))
	best, class, est := joinStep{v: v, path: apScan}, 3, size
	consider := func(st joinStep, e float64) {
		if class > 1 || e < est {
			best, class, est = st, 1, e
		}
	}
	for _, p := range br.ids {
		from := p.V1
		if p.V1 == v {
			from = p.V2
		} else if p.V2 != v {
			continue
		}
		if from != v && bound&(1<<from) != 0 {
			consider(joinStep{v: v, path: apClass, pred: p, from: from}, 1)
		}
	}
	for i, p := range br.eqs {
		side, from, fromAttr, attr := 0, p.V2, p.A2, p.A1
		if p.V2 == v {
			side, from, fromAttr, attr = 1, p.V1, p.A1, p.A2
		}
		if p.V1 != v && p.V2 != v || bound&(1<<from) == 0 {
			continue
		}
		ix := br.eqIx[i][side]
		e := 0.0
		if d := ix.Distinct(); d > 0 {
			e = size / float64(d)
		}
		consider(joinStep{
			v: v, path: apEq, pred: p, from: from, fromAttr: fromAttr, ix: ix,
			float: br.scope.Relations[rel].Schema.Attrs[attr].Type == relation.TypeFloat,
		}, e)
	}
	for _, w := range br.plan.vars[v].consts {
		e := 0.0
		if w.constOK {
			e = float64(len(w.ix.LookupWord(w.constW)))
		}
		consider(joinStep{v: v, path: apConst, pred: w.p, konst: w}, e)
	}
	if class == 3 && br.simReaches(v, bound) {
		class = 2
	}
	return best, class, est
}

// simReaches reports whether a similarity join binds v from a bound
// variable.
func (br *boundRule) simReaches(v int, bound uint64) bool {
	for i := range br.mls {
		m := &br.mls[i]
		for s, j := range m.sim {
			vs, vo := m.pred.V1, m.pred.V2
			if s == 1 {
				vs, vo = vo, vs
			}
			if j != nil && vs == v && bound&(1<<vo) != 0 {
				return true
			}
		}
	}
	return false
}

// candidatesFor makes step st's one access, at recursion depth depth: the
// class of its id predicate's bound side, the key map or posting list of
// its equality, its constant's posting list, or its relation's scan. It
// returns the path taken.
//
// Every candidate list, on every access path, is strictly GID-ascending,
// which extend's GID window (gidWindow) reads by binary search: a scope's
// relations list their tuples in GID order (Dataset.Fragment takes its ids
// ascending), and so does a similarity join, which follows the relation;
// postings are appended in place as tuples arrive, in GID order; a key map
// returns at most one tuple; and Engine.union keeps class member lists
// sorted.
func (c *evalCtx) candidatesFor(st *joinStep, depth int) ([]*relation.Tuple, accessPath) {
	switch st.path {
	case apClass:
		return c.classOf(st, depth), apClass
	case apEq:
		t := c.binding[st.from]
		if km := st.km; km != nil && km.Live() {
			return km.Lookup(t), apKey
		}
		if st.float && t.Word(st.fromAttr) == relation.QNaNWord {
			return nil, apEq // NaN equals nothing
		}
		return st.ix.LookupTuple(t, st.fromAttr), apEq
	}
	return c.br.rootCands(st), st.path
}

// rootCands lists the candidates of a step that reads no binding: its
// constant's posting list, or its relation's scan.
func (br *boundRule) rootCands(st *joinStep) []*relation.Tuple {
	if st.path == apConst {
		if w := st.konst; w.constOK {
			return w.ix.LookupWord(w.constW)
		}
		return nil // unresolvable: an unknown string or NaN matches nothing
	}
	return br.scope.Relations[br.r.Vars[st.v].RelIdx].Tuples
}

// classOf lists the members of the E_id class of st's bound side that lie
// in v's relation inside the rule's scope, in GID order. A singleton class
// answers with the bound tuple itself, out of the binding, without a copy.
func (c *evalCtx) classOf(st *joinStep, depth int) []*relation.Tuple {
	t := c.binding[st.from]
	rel := c.br.r.Vars[st.v].RelIdx
	ms := c.e.classList(c.root(t.GID))
	if ms == nil {
		if t.Rel != rel {
			return nil
		}
		return c.binding[st.from : st.from+1]
	}
	for len(c.classBufs) <= depth {
		c.classBufs = append(c.classBufs, nil)
	}
	out := c.classBufs[depth][:0]
	for _, g := range ms {
		if m := c.br.scope.Tuple(g); m != nil && m.Rel == rel {
			out = append(out, m)
		}
	}
	c.classBufs[depth] = out
	return out
}

// describe renders step i of join order o for PlanReport: the variable,
// the access path planned for it, the predicate that access answers, and
// the symmetry reduction's GID bound when the step binds a reduced rule's
// head variable after the other one. It reads only what bind time fixed,
// so PlanReport stays safe beside InsertTuples.
func (br *boundRule) describe(o *joinOrder, i int) PlanStep {
	st := &o.steps[i]
	ps := PlanStep{Var: br.r.Vars[st.v].Name, Path: accessPathNames[st.path]}
	if st.km != nil {
		ps.Path = accessPathNames[apKey]
	}
	if st.pred != nil {
		ps.Via = st.pred.String()
	}
	bound := o.bound
	for _, s := range o.steps[:i] {
		bound |= 1 << s.v
	}
	if h := &br.r.Head; br.reduced && (st.v == h.V1 && bound&(1<<h.V2) != 0 || st.v == h.V2 && bound&(1<<h.V1) != 0) {
		ps.Bound = br.r.Vars[h.V1].Name + ".gid < " + br.r.Vars[h.V2].Name + ".gid"
	}
	return ps
}
