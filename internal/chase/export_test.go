package chase

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync/atomic"

	"dcer/internal/relation"
)

// Switches only this package's tests may flip, all before the engine's
// first deduction.

// SetInterpretRules makes e enumerate through the per-candidate rule
// interpreter instead of the compiled plans — the plans' equivalence
// oracle: Γ is byte-identical either way (DESIGN.md §13).
func (e *Engine) SetInterpretRules(on bool) { e.interpret = on }

// SetSeedHook has f called with the rule and the bound GIDs, in variable
// order, of every valuation a seed pass emits — Deduce's at epoch 0 and
// each InsertTuples batch's — concurrently, from the pool's goroutines.
func (e *Engine) SetSeedHook(f func(rule string, gids []relation.TID)) {
	e.seedHook = func(br *boundRule, binding []relation.TID) {
		f(br.r.Name, slices.Clone(binding))
	}
}

// SeedPatterns lists the seed patterns rule ri has a planned join order
// for, each as its bound variables in ascending order.
func (e *Engine) SeedPatterns(ri int) [][]int {
	var out [][]int
	for _, o := range e.rules[ri].orders {
		vars := []int{}
		for v := range e.rules[ri].r.Vars {
			if o.bound&(1<<v) != 0 {
				vars = append(vars, v)
			}
		}
		out = append(out, vars)
	}
	return out
}

// EnumerateOrder enumerates rule ri from seed (a tuple per variable, nil
// where free), binding the free variables in the sequence seq — nil is the
// greedy plan — with key maps on or off, under a seed pass's epoch cut
// (the free variables before cut range over tuples older than epoch; cut 0
// restricts nothing), and calls f with the GIDs, in variable order, of
// every valuation it emits. The enumeration buffers what it deduces and
// drops it: Γ does not change.
func (e *Engine) EnumerateOrder(ri int, seed []*relation.Tuple, seq []int, keyMaps bool, cut int, epoch relation.TID, f func(gids []relation.TID)) {
	br := e.rules[ri]
	var bound uint64
	for v, t := range seed {
		if t != nil {
			bound |= 1 << v
		}
	}
	o := br.planOrder(bound, seq)
	if !keyMaps {
		for i := range o.steps {
			o.steps[i].km = nil
		}
	}
	c := &evalCtx{e: e, task: &seedTask{v: -1, older: 1<<cut - 1, epoch: epoch}}
	c.seeded = func(_ *boundRule, binding []relation.TID) {
		f(slices.Clone(binding))
	}
	c.reset(br)
	s := c.seedFor(len(br.r.Vars))
	for v, t := range seed {
		if t != nil {
			s[v] = t.GID
		}
	}
	c.enumerateIn(&o, s)
}

// EmptyOrderSplits reports whether rule ri's join order for the empty seed
// pattern is its first variable's root access followed by that variable's
// single-variable order: the planner fact that makes the seed pass at
// epoch 0 walk that order whole.
func (e *Engine) EmptyOrderSplits(ri int) bool {
	br := e.rules[ri]
	steps := br.orders[0].steps
	root, _, _ := br.bestAccess(steps[0].v, 0)
	return reflect.DeepEqual(steps, append([]joinStep{root}, br.orderFor(1<<steps[0].v).steps...))
}

// PlannedOrders describes rule ri's join order for each seed pattern, in
// the order of SeedPatterns.
func (e *Engine) PlannedOrders(ri int) [][]PlanStep {
	br := e.rules[ri]
	out := make([][]PlanStep, len(br.orders))
	for i := range br.orders {
		for j := range br.orders[i].steps {
			out[i] = append(out[i], br.describe(&br.orders[i], j))
		}
	}
	return out
}

// LiveKeyMaps counts the key maps the engine's join orders read that still
// answer their probes.
func (e *Engine) LiveKeyMaps() int {
	live := map[*relation.KeyMap]bool{}
	for _, br := range e.rules {
		for _, o := range br.orders {
			for _, st := range o.steps {
				if st.km != nil {
					live[st.km] = st.km.Live()
				}
			}
		}
	}
	n := 0
	for _, ok := range live {
		if ok {
			n++
		}
	}
	return n
}

// CheckCandidateOrder draws every candidate list e's join orders can draw
// and returns an error naming the first that is not strictly
// GID-ascending: for every rule, seed pattern and step, the step's access
// (candidatesFor, with classOf behind a class step) from each tuple its
// source variable ranges over, and every similarity join (simAccess)
// probed from each tuple of its other side. The lists are drawn unwindowed,
// with e quiesced; a similarity join's probes fill its memo as a
// deduction's would.
func (e *Engine) CheckCandidateOrder() error {
	c := &evalCtx{e: e}
	descent := func(ts []relation.TID) error {
		for i := 1; i < len(ts); i++ {
			if ts[i-1] >= ts[i] {
				return fmt.Errorf("GID %d at %d follows GID %d", ts[i], i, ts[i-1])
			}
		}
		return nil
	}
	for _, br := range e.rules {
		for oi := range br.orders {
			for si := range br.orders[oi].steps {
				st := &br.orders[oi].steps[si]
				froms := []relation.TID{unbound} // scan and constant steps read no binding
				if st.path == apEq || st.path == apClass {
					froms = br.rels[st.from].TIDs()
				}
				for _, t := range froms {
					c.reset(br)
					c.binding[st.from] = t
					cands, path := c.candidatesFor(st, 0)
					if err := descent(cands); err != nil {
						return fmt.Errorf("rule %s, order %d, step %d (%s): %w", br.r.Name, oi, si, accessPathNames[path], err)
					}
				}
			}
		}
		for i := range br.mls {
			m := &br.mls[i]
			for s, j := range m.sim {
				if j == nil {
					continue
				}
				vs, vo := m.pred.V1, m.pred.V2
				if s == 1 {
					vs, vo = vo, vs
				}
				for _, t := range br.rels[vo].TIDs() {
					c.reset(br)
					c.binding[vo] = t
					cands, _, _ := c.simAccess(vs)
					if err := descent(cands); err != nil {
						return fmt.Errorf("rule %s, similarity join of %s: %w", br.r.Name, m.pred, err)
					}
				}
			}
		}
	}
	return nil
}

// GIDWindow is gidWindow, and OpenWindowHi the upper bound of the window
// that cuts nothing.
var GIDWindow = gidWindow

const OpenWindowHi = relation.TID(math.MaxInt32)

// ParentLinks returns the raw parent link of every id of e's E_id forest.
func (e *Engine) ParentLinks() []int {
	out := make([]int, e.uf.Len())
	for i := range out {
		out[i] = e.uf.Parent(i)
	}
	return out
}

// PoolReadEid runs one pool call over e whose tasks read E_id as a
// deduction's do. One task per class access step of e's join orders lists
// the step's class (classOf) from each tuple its source variable ranges
// over, and asks same of the tuple and each member; one task per run of
// 4096 ids asks same of each id and the next. It returns how many of the
// listed classes had more than one member, and how many members same
// denied belong to their class.
func (e *Engine) PoolReadEid() (multi, denied int64) {
	type classTask struct {
		br *boundRule
		st *joinStep
	}
	var tasks []classTask
	for _, br := range e.rules {
		for oi := range br.orders {
			for si := range br.orders[oi].steps {
				if st := &br.orders[oi].steps[si]; st.path == apClass {
					tasks = append(tasks, classTask{br, st})
				}
			}
		}
	}
	const idRun = 4096
	n := e.uf.Len()
	var nMulti, nDenied atomic.Int64
	e.pool(len(tasks)+(n+idRun-1)/idRun, func(i int, c *evalCtx) {
		if i >= len(tasks) {
			for a := (i - len(tasks)) * idRun; a < min(n-1, (i-len(tasks)+1)*idRun); a++ {
				c.same(relation.TID(a), relation.TID(a+1))
			}
			return
		}
		tk := tasks[i]
		for _, t := range tk.br.rels[tk.st.from].TIDs() {
			c.reset(tk.br)
			c.binding[tk.st.from] = t
			ms := c.classOf(tk.st, 0)
			if len(ms) > 1 {
				nMulti.Add(1)
			}
			for _, m := range ms {
				if !c.same(t, m) {
					nDenied.Add(1)
				}
			}
		}
	}, func(int, *taskOut) {})
	return nMulti.Load(), nDenied.Load()
}
