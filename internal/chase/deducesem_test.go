package chase

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDeduceSlotsFollowGOMAXPROCS changes GOMAXPROCS after package init —
// as `go test -cpu 1,2` and a program that sets it in main do — and checks
// that the number of enumerations holding a slot at once follows it, up
// and down. A semaphore sized at init admits the initial width whatever
// the setting: raised, it never fills the new width (the deadline below
// ends the wait); lowered, it oversubscribes.
func TestDeduceSlotsFollowGOMAXPROCS(t *testing.T) {
	initial := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(initial)
	for _, procs := range []int{initial + 2, 1} {
		runtime.GOMAXPROCS(procs)
		var in, peak atomic.Int32
		full := make(chan struct{}) // closed once procs enumerations hold a slot together
		var fill sync.Once
		deadline, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		var wg sync.WaitGroup
		for i := 0; i < 4*procs; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				acquireDeduceSlot()
				defer releaseDeduceSlot()
				n := in.Add(1)
				defer in.Add(-1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				if int(n) == procs {
					fill.Do(func() { close(full) })
				}
				select {
				case <-full:
				case <-deadline.Done():
				}
				// Hold the slot long enough for a peer admitted beyond the
				// width to be counted.
				time.Sleep(time.Millisecond)
			}()
		}
		wg.Wait()
		cancel()
		if got := int(peak.Load()); got != procs {
			t.Errorf("GOMAXPROCS %d (%d at init): at most %d enumerations held a slot at once, want %d",
				procs, initial, got, procs)
		}
	}
}
