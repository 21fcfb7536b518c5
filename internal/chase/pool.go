package chase

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// pool runs n enumeration tasks against one frozen snapshot of Γ and
// merges what they buffered on the calling goroutine. It is the engine's
// only source of parallelism: the first pass of Deduce hands it one task per
// rule, InsertTuples' seed pass one task per (rule, seeded variable, run of
// new tuples), a fanned-out drain batch one task per contiguous chunk of
// jobs.
//
// The snapshot — every index a plan can reach built, the union-find roots
// copied — is taken once. min(n, GOMAXPROCS) goroutines take task indexes
// from one atomic counter, so tasks start in index order; each goroutine
// keeps one buffered scratch context across its tasks, and when a task ends
// its facts, dependency records, justifications and counters move out of
// that context into the task's own output. So the tasks share no mutable
// state, the buffers sized to candidate lists are paid once per goroutine,
// not per task, and a long list of small tasks holds no more than its
// outputs. The width is read per call, not fixed anywhere: engines running
// side by side (the in-process DMatch workers) share the cores through Go's
// scheduler.
//
// ready, when non-nil, is called on each task's output as soon as it and
// every task before it have finished, while later tasks still run; merge is
// called on each once all have finished. Both run in index order on the
// calling goroutine, which keeps the engine deterministic whatever order the
// tasks finish in.
func (e *Engine) pool(n int, run func(i int, c *evalCtx), ready, merge func(i int, o *taskOut)) {
	e.prebuildIndexes()
	roots := e.frozenRoots()
	outs := make([]taskOut, n)
	var next atomic.Int64
	finished := make(chan int, n) // one send per task: no worker ever blocks
	var wg sync.WaitGroup
	for range min(n, runtime.GOMAXPROCS(0)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &evalCtx{e: e, roots: roots, buffered: true}
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				run(i, c)
				outs[i], c.taskOut = c.taskOut, taskOut{}
				finished <- i
			}
			c.flushAccess()
		}()
	}
	done := make([]bool, n)
	for k, i := 0, 0; k < n; k++ {
		done[<-finished] = true
		for ; i < n && done[i]; i++ {
			if ready != nil {
				ready(i, &outs[i])
			}
		}
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

// frozenRoots snapshots the union-find roots so the pool's tasks can
// answer Same without path-compressing shared state. The snapshot lives in
// one buffer the engine reuses across pool calls, which never overlap: they
// come once per insert batch and per fanned-out drain batch, and a fresh
// copy of the id space each time outweighs what their tasks allocate.
func (e *Engine) frozenRoots() []int32 {
	n := e.uf.Len()
	if e.roots == nil || cap(e.roots) < n {
		e.roots = make([]int32, n, n+n/4) // headroom for the ids inserts add
	}
	e.roots = e.roots[:n]
	for i := range e.roots {
		e.roots[i] = int32(e.uf.Find(i))
	}
	return e.roots
}
