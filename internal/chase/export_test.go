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

// SetPlanResortMinEvals overrides the number of predicate evaluations
// every plan accumulates between adaptive re-sorts (planResortMinEvals);
// n ≤ 0 disables reordering.
func (e *Engine) SetPlanResortMinEvals(n int64) {
	for _, br := range e.rules {
		br.plan.sortMin = n
	}
}

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
// from the pool's goroutines, unless the engine is sequential.
func (e *Engine) SetSeedHook(f func(rule string, gids []relation.TID)) {
	e.seedHook = func(br *boundRule, binding []*relation.Tuple) {
		gids := make([]relation.TID, len(binding))
		for i, t := range binding {
			gids[i] = t.GID
		}
		f(br.r.Name, gids)
	}
}
