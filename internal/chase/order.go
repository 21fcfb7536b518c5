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
	// probed with bound variable from's attribute fromAttr. float marks a
	// float key, whose NaN words find nothing.
	from, fromAttr int
	ix             *relation.Index
	float          bool

	konst *wordPred // apConst: the constant's step, with its probe word and index

	// cell cuts the candidates to the cells the engine owns (cells.go):
	// set on the steps of a worker engine whose variable fixes cell bits.
	// A lone engine has none.
	cell *cellStep
}

// joinOrder is the planned order for the rule variables left unbound by
// the seed pattern bound (a bit per variable).
type joinOrder struct {
	bound uint64
	steps []joinStep
	// fits, in a worker engine, holds the owned partial cells over the
	// bits bound fixes: a drain job's seed must fit (ownsSeed).
	fits []uint64
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
// ties going to the lower variable index. A worker engine scales every
// estimate but the class one by the share of the candidates its cell cut
// keeps (ruleCells.share). seq forces the sequence instead
// (tests); each step still takes its cheapest access.
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
		o.steps = append(o.steps, best)
		bound |= 1 << best.v
	}
	return o
}

// bestAccess returns v's cheapest access given the bound variables, its
// planning class and its estimated candidate count (see planOrder). A
// class access wins ties.
func (br *boundRule) bestAccess(v int, bound uint64) (joinStep, int, float64) {
	share := br.cells.share(bound, v)
	size := float64(len(br.rels[v].TIDs())) * share
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
		e := 0.0
		if d := br.eqIx[i][side].Distinct(); d > 0 {
			e = size / float64(d)
		}
		consider(joinStep{
			v: v, path: apEq, pred: p, from: from, fromAttr: fromAttr, ix: br.eqIx[i][side],
			float: br.rels[v].Schema.Attrs[attr].Type == relation.TypeFloat,
		}, e)
	}
	for _, w := range br.plan.vars[v].consts {
		st := joinStep{v: v, path: apConst, pred: w.p, konst: w}
		consider(st, float64(len(br.rootCands(&st)))*share)
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
// class of its id predicate's bound side, the posting list of its
// equality, its constant's posting list, or its relation's scan. It
// returns the path taken. Every candidate is a GID of v's relation, and
// the equality's probe word is the bound tuple's, read through the row
// table; rule resolution gives both sides of an equality one type. In a
// worker engine extend then cuts the candidates to the owned cells.
//
// Every candidate list, on every access path, is strictly GID-ascending,
// which extend's GID window (gidWindow) reads by binary search: a
// relation lists its tuples in GID order, and so does a similarity join,
// which follows the relation; postings are appended as tuples arrive, in
// GID order; Engine.union keeps class member lists sorted; and the cell
// cut keeps the order.
func (c *evalCtx) candidatesFor(st *joinStep, depth int) ([]relation.TID, accessPath) {
	switch st.path {
	case apClass:
		return c.classOf(st, depth), apClass
	case apEq:
		w := c.word(st.from, c.binding[st.from], st.fromAttr)
		if st.float && w == relation.QNaNWord {
			return nil, apEq // NaN equals nothing
		}
		return st.ix.LookupWord(w), apEq
	}
	return c.br.rootCands(st), st.path
}

// rootCands lists the candidates of a step that reads no binding: its
// constant's posting list, or its relation's scan.
func (br *boundRule) rootCands(st *joinStep) []relation.TID {
	if st.path == apConst {
		if w := st.konst; w.constOK {
			return w.ix.LookupWord(w.constW)
		}
		return nil // unresolvable: an unknown string or NaN matches nothing
	}
	return br.rels[st.v].TIDs()
}

// classOf lists the members of the E_id class of st's bound side that lie
// in v's relation, in GID order. A singleton class answers with the bound
// tuple itself, out of the binding, without a copy.
func (c *evalCtx) classOf(st *joinStep, depth int) []relation.TID {
	t := c.binding[st.from]
	rel := c.br.r.Vars[st.v].RelIdx
	ms := c.e.classList(c.root(t))
	if ms == nil {
		if c.br.r.Vars[st.from].RelIdx != rel {
			return nil
		}
		return c.binding[st.from : st.from+1]
	}
	out := c.candBuf(depth)
	for _, g := range ms {
		if c.e.d.RelOf(g) == rel {
			out = append(out, g)
		}
	}
	c.candBufs[depth] = out
	return out
}

// candBuf returns depth's candidate buffer, emptied.
func (c *evalCtx) candBuf(depth int) []relation.TID {
	for len(c.candBufs) <= depth {
		c.candBufs = append(c.candBufs, nil)
	}
	return c.candBufs[depth][:0]
}

// describe renders step i of join order o for PlanReport: the variable,
// the access path planned for it, the predicate that access answers, and
// the symmetry reduction's GID bound when the step binds a reduced rule's
// head variable after the other one. It reads only what bind time fixed,
// so PlanReport stays safe beside InsertTuples.
func (br *boundRule) describe(o *joinOrder, i int) PlanStep {
	st := &o.steps[i]
	ps := PlanStep{Var: br.r.Vars[st.v].Name, Path: accessPathNames[st.path]}
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
