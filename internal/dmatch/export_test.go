package dmatch

import "testing"

// What only this package's tests may reach.

// MaxRebalances is the per-run migration budget.
const MaxRebalances = maxRebalances

// NoRebalanceMinStep removes, for the rest of the test, the makespan floor
// below which a skewed superstep does not trigger a migration: the tests'
// supersteps last microseconds.
func NoRebalanceMinStep(t testing.TB) {
	old := rebalanceMinStep
	rebalanceMinStep = 0
	t.Cleanup(func() { rebalanceMinStep = old })
}

// LimitSupersteps lowers the BSP loop's safety net to n for the rest of
// the test.
func LimitSupersteps(t testing.TB, n int) {
	old := maxSupersteps
	maxSupersteps = n
	t.Cleanup(func() { maxSupersteps = old })
}
