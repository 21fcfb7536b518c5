package chase

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// pool runs n enumeration tasks against an unchanging Γ and merges what
// they deduced on the calling goroutine. Every enumeration of the engine
// is one of its tasks: the seed pass (Deduce's at epoch 0, each
// InsertTuples batch's from the batch's epoch) hands it one task per GID
// morsel of a seeded variable's first-step list, each drain batch one task
// per contiguous chunk of jobs.
//
// Every index a plan can reach is built when its rule is bound (bindRule),
// and nothing the tasks read changes until all have finished, so they read
// it in place — E_id without compressing its paths (evalCtx.root) — and
// copy nothing. min(n, GOMAXPROCS) goroutines take task indexes
// from one atomic counter, so tasks start in index order; each goroutine
// keeps one scratch context across its tasks, and when a task ends
// its facts, justifications and counters move out of that context into the
// task's own output. So the tasks share no mutable state, the buffers sized
// to candidate lists are paid once per goroutine, not per task, and a long
// list of small tasks holds no more than its outputs. The width is read per
// call, not fixed anywhere: engines running side by side (the in-process
// DMatch workers) share the cores through Go's scheduler.
//
// merge is called on each task's output once all have finished, in index
// order on the calling goroutine, which keeps the engine deterministic
// whatever order the tasks finish in.
func (e *Engine) pool(n int, run func(i int, c *evalCtx), merge func(i int, o *taskOut)) {
	outs := make([]taskOut, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(n, runtime.GOMAXPROCS(0)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &evalCtx{e: e}
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				run(i, c)
				outs[i], c.taskOut = c.taskOut, taskOut{}
			}
			c.flushAccess()
		}()
	}
	wg.Wait()
	for i := range outs {
		merge(i, &outs[i])
	}
}
