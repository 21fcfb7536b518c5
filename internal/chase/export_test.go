package chase

import (
	"math"

	"dcer/internal/relation"
)

// Switches only this package's tests may flip, all before the engine's
// first deduction.

// SetInterpretRules makes e enumerate through the per-candidate rule
// interpreter instead of the compiled plans — the plans' equivalence
// oracle: Γ is byte-identical either way (DESIGN.md §13).
func (e *Engine) SetInterpretRules(on bool) { e.interpret = on }

// SetDrainParallelMin fixes the batch size from which a drain batch fans
// out across goroutines, whatever the engine's options and GOMAXPROCS say
// (runJobs): 1 sends every batch through the buffered fan-out, NeverFanOut
// none.
func (e *Engine) SetDrainParallelMin(n int) { e.drainMin = n }

// NeverFanOut is the SetDrainParallelMin value that keeps every drain
// batch on the engine's live context.
const NeverFanOut = math.MaxInt

// SetSeedHook has f called with the rule and the bound GIDs, in variable
// order, of every valuation InsertTuples' seed pass emits — concurrently,
// from the pool's goroutines.
func (e *Engine) SetSeedHook(f func(rule string, gids []relation.TID)) {
	e.seedHook = func(br *boundRule, binding []*relation.Tuple) {
		gids := make([]relation.TID, len(binding))
		for i, t := range binding {
			gids[i] = t.GID
		}
		f(br.r.Name, gids)
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
// greedy plan — with key maps on or off, under InsertTuples' epoch cut
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
	c := &evalCtx{e: e, buffered: true, cut: cut, epoch: epoch}
	c.seeded = func(_ *boundRule, binding []*relation.Tuple) {
		gids := make([]relation.TID, len(binding))
		for i, t := range binding {
			gids[i] = t.GID
		}
		f(gids)
	}
	c.reset(br)
	s := c.seedFor(len(br.r.Vars))
	copy(s, seed)
	c.enumerateIn(&o, s)
}

// PlannedOrders describes rule ri's join order for each seed pattern, in
// the order of SeedPatterns.
func (e *Engine) PlannedOrders(ri int) [][]PlanStep {
	br := e.rules[ri]
	out := make([][]PlanStep, len(br.orders))
	for i := range br.orders {
		for j := range br.orders[i].steps {
			out[i] = append(out[i], br.describe(&br.orders[i].steps[j]))
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
