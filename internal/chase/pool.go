package chase

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// pool runs n enumeration tasks against one frozen snapshot of Γ and
// merges what they buffered on the calling goroutine. It is the engine's
// only source of parallelism: the first pass of Deduce hands it one task per
// rule, a fanned-out drain batch one task per contiguous chunk of jobs.
//
// The snapshot — every index a plan can reach built, the union-find roots
// copied — is taken once, and each task gets its own buffered evalCtx, so
// the tasks share no mutable state. min(n, GOMAXPROCS) goroutines take task
// indexes from one atomic counter, so tasks start in index order. The width
// is read per call, not fixed anywhere: engines running side by side (the
// in-process DMatch workers) share the cores through Go's scheduler.
//
// ready, when non-nil, is called on each task as soon as it and every task
// before it have finished, while later tasks still run; merge is called on
// each task once all have finished. Both run in index order on the calling
// goroutine, which keeps the engine deterministic whatever order the tasks
// finish in.
func (e *Engine) pool(n int, run, ready, merge func(i int, c *evalCtx)) {
	e.prebuildIndexes()
	roots := e.frozenRoots()
	ctxs := make([]*evalCtx, n)
	for i := range ctxs {
		ctxs[i] = &evalCtx{e: e, roots: roots, buffered: true}
	}
	var next atomic.Int64
	finished := make(chan int, n) // one send per task: no worker ever blocks
	var wg sync.WaitGroup
	for range min(n, runtime.GOMAXPROCS(0)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				run(i, ctxs[i])
				finished <- i
			}
		}()
	}
	done := make([]bool, n)
	for k, i := 0, 0; k < n; k++ {
		done[<-finished] = true
		for ; i < n && done[i]; i++ {
			if ready != nil {
				ready(i, ctxs[i])
			}
		}
	}
	wg.Wait()
	for i, c := range ctxs {
		merge(i, c)
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
// answer Same without path-compressing shared state.
func (e *Engine) frozenRoots() []int32 {
	roots := make([]int32, e.uf.Len())
	for i := range roots {
		roots[i] = int32(e.uf.Find(i))
	}
	return roots
}
