package dmatch

import "testing"

// What only this package's tests may reach.

// LimitSupersteps lowers the BSP loop's safety net to n for the rest of
// the test.
func LimitSupersteps(t testing.TB, n int) {
	old := maxSupersteps
	maxSupersteps = n
	t.Cleanup(func() { maxSupersteps = old })
}
