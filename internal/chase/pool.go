package chase

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// pool runs n enumeration tasks against an unchanging Γ and merges what
// they buffered on the calling goroutine. It is the engine's
// only source of parallelism: the seed pass (Deduce's at epoch 0, each
// InsertTuples batch's from the batch's epoch) hands it one task per GID
// morsel of a seeded variable's first-step list, a fanned-out drain batch
// one task per contiguous chunk of jobs.
//
// Every index a plan can reach is built first; after that nothing the
// tasks read changes until all have finished, so they read it in place —
// E_id without compressing its paths (evalCtx.root) — and copy nothing.
// min(n, GOMAXPROCS) goroutines take task indexes
// from one atomic counter, so tasks start in index order; each goroutine
// keeps one buffered scratch context across its tasks, and when a task ends
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
	e.prebuildIndexes()
	outs := make([]taskOut, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(n, runtime.GOMAXPROCS(0)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &evalCtx{e: e, buffered: true}
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

// prebuildIndexes materializes every index a rule's query plan can reach
// (one per equality- or constant-predicate attribute), so the pool's tasks
// never mutate the lazy index caches — but for a similarity join's index,
// built under the set's lock by the first probe. Since bindRule resolves
// eqIx and the plan's constant probes eagerly, this is a backstop that runs
// once and finds everything already built.
func (e *Engine) prebuildIndexes() {
	if e.prebuilt {
		return
	}
	e.prebuilt = true
	for _, br := range e.rules {
		for _, p := range br.eqs {
			br.ix.For(br.r.Vars[p.V1].RelIdx, p.A1)
			br.ix.For(br.r.Vars[p.V2].RelIdx, p.A2)
		}
		for v := range br.consts {
			for _, p := range br.consts[v] {
				br.ix.For(br.r.Vars[p.V1].RelIdx, p.A1)
			}
		}
	}
}
