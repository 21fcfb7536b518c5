package dmatch

import (
	"time"

	"dcer/internal/hypart"
)

// Skew-adaptive scheduling: HyPart's LPT assignment balances workers by
// *predicted* block cost (block size), but the chase's actual cost per
// tuple varies with rule selectivity and ML hit rates, so a superstep can
// come out skewed even under a perfectly size-balanced assignment. This
// file holds the policy — when to migrate (only under a positive
// Options.RebalanceSkew), and where the blocks go; the migration itself
// is masterState.reassign.

// RebalanceEvent describes one adaptive block migration.
type RebalanceEvent struct {
	// Step is the superstep after which the migration ran.
	Step int
	// BlocksMoved is how many virtual blocks changed workers.
	BlocksMoved int
	// WorkersRebuilt is how many workers got new cells (≤ 2×moved).
	WorkersRebuilt int
	// SkewBefore is the skew ratio that triggered the migration;
	// SkewAfter is the ratio observed on the following superstep (0 until
	// that superstep completes).
	SkewBefore float64
	SkewAfter  float64
	// RebuildNs is the master-side cost of the migration: the host
	// bitsets, the owned-cell bitmaps and the fact replay preparation.
	RebuildNs int64
}

// maxRebalances bounds the number of migrations per run.
const maxRebalances = 2

// rebalanceMinStep is the makespan floor a superstep must reach before its
// skew can trigger a migration — microsecond-scale steps show large skew
// ratios that are pure timing noise. A variable only so that the package's
// tests, whose steps are that short, can remove it (export_test.go).
var rebalanceMinStep = 2 * time.Millisecond

// rebalancer holds the adaptive-scheduling policy resolved from Options
// and the remaining migration budget.
type rebalancer struct {
	enabled bool
	skewMin float64
	left    int
}

func newRebalancer(opts Options, n, blocks int) *rebalancer {
	// With n workers and ≤ n blocks every worker holds at most one block,
	// so no migration can improve the makespan.
	return &rebalancer{
		enabled: opts.RebalanceSkew > 0 && n >= 2 && blocks > n,
		skewMin: opts.RebalanceSkew,
		left:    maxRebalances,
	}
}

// shouldRebalance reports whether the just-finished superstep's skew and
// makespan warrant a migration, consuming one unit of budget when so.
func (rb *rebalancer) shouldRebalance(skew float64, makespan time.Duration) bool {
	if !rb.enabled || rb.left <= 0 || skew < rb.skewMin || makespan < rebalanceMinStep {
		return false
	}
	rb.left--
	return true
}

// balance places blocks on the live workers with hypart.AssignLPT and
// returns the new assignment plus the number of blocks that moved. After
// a death only the dead workers' blocks move, onto the loads the survivors
// already carry, so a survivor that adopts none keeps its engine;
// otherwise every block is placed afresh. The observed cost of a block is
// its size scaled by its current worker's busy time per hosted tuple this
// superstep — the best per-block signal available without per-block
// timers inside the engines. Workers that were idle this step (or dead:
// busy is then all zero) contribute their blocks at predicted, size-only
// cost.
func balance(blocks []hypart.Block, assign []int, busy []time.Duration, alive func(int) bool) ([]int, int) {
	n := len(busy)
	sizeTotal := make([]float64, n)
	orphaned := false
	for b := range blocks {
		sizeTotal[assign[b]] += float64(blocks[b].Size)
		orphaned = orphaned || !alive(assign[b])
	}
	costs := make([]float64, len(blocks))
	load := make([]float64, n)
	var place []int // the blocks to place, in index (canonical key) order
	for b, w := range assign {
		costs[b] = float64(blocks[b].Size) // predicted cost: size alone
		if busy[w] > 0 && sizeTotal[w] > 0 {
			costs[b] *= float64(busy[w]) / sizeTotal[w]
		}
		if orphaned && alive(w) {
			load[w] += costs[b]
		} else {
			place = append(place, b)
		}
	}
	next := append([]int(nil), assign...)
	hypart.AssignLPT(next, place, costs, load, alive)
	moved := 0
	for b := range next {
		if next[b] != assign[b] {
			moved++
		}
	}
	return next, moved
}
