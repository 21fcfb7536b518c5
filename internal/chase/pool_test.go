package chase

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcer/internal/unionfind"
)

// TestPoolFollowsGOMAXPROCS changes GOMAXPROCS after package init — as `go
// test -cpu 1,2` and a program that sets it in main do — and checks that
// one pool call runs min(n, GOMAXPROCS) tasks at once, up and down, and
// every task exactly once. A width fixed at init would never fill a raised
// GOMAXPROCS (the deadline below ends the wait) and would oversubscribe a
// lowered one.
func TestPoolFollowsGOMAXPROCS(t *testing.T) {
	e := &Engine{uf: unionfind.New(0)}
	initial := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(initial)
	for _, procs := range []int{initial + 2, 1} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{2, 4 * procs} {
			width := min(n, procs)
			var in, peak atomic.Int32
			runs := make([]atomic.Int32, n)
			full := make(chan struct{}) // closed once width tasks run together
			var fill sync.Once
			deadline, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			e.pool(n, func(i int, _ *evalCtx) {
				runs[i].Add(1)
				k := in.Add(1)
				defer in.Add(-1)
				for p := peak.Load(); k > p && !peak.CompareAndSwap(p, k); p = peak.Load() {
				}
				if int(k) == width {
					fill.Do(func() { close(full) })
				}
				select {
				case <-full:
				case <-deadline.Done():
				}
				// Hold the task long enough for one started beyond the
				// width to be counted.
				time.Sleep(time.Millisecond)
			}, nil, func(int, *evalCtx) {})
			cancel()
			if got := int(peak.Load()); got != width {
				t.Errorf("GOMAXPROCS %d (%d at init), %d tasks: at most %d ran at once, want %d",
					procs, initial, n, got, width)
			}
			for i := range runs {
				if r := runs[i].Load(); r != 1 {
					t.Errorf("GOMAXPROCS %d, %d tasks: task %d ran %d times", procs, n, i, r)
				}
			}
		}
	}
}

// TestPoolMergesInIndexOrder makes the tasks of one pool call finish in
// reverse order (task i sleeps n−i ms) and checks that both merge callbacks
// still see the tasks in index order, each on its own buffered context:
// ready(i) only once tasks 0..i have finished, merge(i) only once all have.
func TestPoolMergesInIndexOrder(t *testing.T) {
	const n = 8
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	e := &Engine{uf: unionfind.New(0)}
	var finished [n]atomic.Bool
	ctxs := make([]*evalCtx, n)
	var ready, merged []int
	e.pool(n, func(i int, c *evalCtx) {
		time.Sleep(time.Duration(n-i) * time.Millisecond)
		ctxs[i] = c
		finished[i].Store(true)
	}, func(i int, c *evalCtx) {
		for k := 0; k <= i; k++ {
			if !finished[k].Load() {
				t.Errorf("ready(%d) called before task %d finished", i, k)
			}
		}
		ready = append(ready, i)
	}, func(i int, c *evalCtx) {
		for k := range finished {
			if !finished[k].Load() {
				t.Errorf("merge(%d) called before task %d finished", i, k)
			}
		}
		if c != ctxs[i] || !c.buffered || c.roots == nil {
			t.Errorf("merge(%d) got another task's context, or an unbuffered one", i)
		}
		merged = append(merged, i)
	})
	for _, got := range [][]int{ready, merged} {
		if len(got) != n {
			t.Fatalf("callbacks ran on tasks %v, want 0..%d", got, n-1)
		}
		for i := range got {
			if got[i] != i {
				t.Fatalf("callbacks ran in order %v, want 0..%d", got, n-1)
			}
		}
	}
}
