package chase

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcer/internal/datagen"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
)

// TestPoolFollowsGOMAXPROCS changes GOMAXPROCS after package init — as `go
// test -cpu 1,2` and a program that sets it in main do — and checks that
// one pool call runs min(n, GOMAXPROCS) tasks at once, up and down, and
// every task exactly once. A width fixed at init would never fill a raised
// GOMAXPROCS (the deadline below ends the wait) and would oversubscribe a
// lowered one.
func TestPoolFollowsGOMAXPROCS(t *testing.T) {
	e := &Engine{}
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
			}, func(int, *taskOut) {})
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

// tagFact is the one fact the pool tests' task i buffers, so a callback can
// tell whose output it was handed.
func tagFact(i int) Literal { return matchLit(relation.TID(i), relation.TID(i+1)) }

// ownOutput reports whether o is exactly what task i left in its output.
func ownOutput(i int, o *taskOut) bool {
	return len(o.facts) == 1 && o.facts[0] == tagFact(i)
}

// TestPoolMergesInIndexOrder makes the tasks of one pool call finish in
// reverse order (task i sleeps n−i ms) and checks that the merge callback
// still sees the tasks in index order, each task its own output, and only
// once all have finished.
func TestPoolMergesInIndexOrder(t *testing.T) {
	const n = 8
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	e := &Engine{}
	var finished [n]atomic.Bool
	var merged []int
	e.pool(n, func(i int, c *evalCtx) {
		time.Sleep(time.Duration(n-i) * time.Millisecond)
		c.facts = append(c.facts, tagFact(i))
		finished[i].Store(true)
	}, func(i int, o *taskOut) {
		for k := range finished {
			if !finished[k].Load() {
				t.Errorf("merge(%d) called before task %d finished", i, k)
			}
		}
		if !ownOutput(i, o) {
			t.Errorf("merge(%d) got facts %v, not the task's own output", i, o.facts)
		}
		merged = append(merged, i)
	})
	if len(merged) != n {
		t.Fatalf("merge ran on tasks %v, want 0..%d", merged, n-1)
	}
	for i := range merged {
		if merged[i] != i {
			t.Fatalf("merge ran in order %v, want 0..%d", merged, n-1)
		}
	}
}

// TestPoolScratchPerWorker runs 1 000 tiny tasks at width 2 and checks that
// they share exactly two scratch contexts, one per worker goroutine, while
// every task still hands the merge its own output. The first task waits
// until the second worker has run a task, so both take part.
func TestPoolScratchPerWorker(t *testing.T) {
	const n = 1000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	e := &Engine{}
	var mu sync.Mutex
	scratch := make(map[*evalCtx]bool)
	both := make(chan struct{})
	deadline, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	e.pool(n, func(i int, c *evalCtx) {
		mu.Lock()
		if !scratch[c] {
			scratch[c] = true
			if len(scratch) == 2 {
				close(both)
			}
		}
		mu.Unlock()
		if i == 0 {
			select {
			case <-both:
			case <-deadline.Done():
			}
		}
		c.facts = append(c.facts, tagFact(i))
	}, func(i int, o *taskOut) {
		if !ownOutput(i, o) {
			t.Errorf("merge(%d) got facts %v, not the task's own output", i, o.facts)
		}
	})
	if len(scratch) != 2 {
		t.Errorf("%d tasks at width 2 ran on %d scratch contexts, want 2", n, len(scratch))
	}
}

// TestPoolReadsEidInPlace checks that pool tasks read E_id without
// writing it: one pool call whose tasks list classes and ask same across
// the whole id space must leave the union-find's parent links exactly as
// they were, and every listed member must be in its tuple's class.
//
// Run alone leaves TPCH 0.2 with a flat forest (classes of two, every
// path already compressed by the drain's Finds), where a compressing read
// would change nothing. So the test then joins the fixpoint's classes
// eight at a time through IncDeduce, as facts from other workers arrive:
// union by rank leaves ids up to three links below their root.
func TestPoolReadsEidInPlace(t *testing.T) {
	g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.2, Dup: 0.3, Seed: 1})
	rules, err := g.Rules()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(g.D, rules, mlpred.DefaultRegistry(), Options{ShareIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	classes := eng.Classes()
	var joins []Fact
	for step := 1; step < 8; step *= 2 {
		for i := 0; i+step < len(classes); i += 2 * step {
			joins = append(joins, MatchFact(classes[i][0], classes[i+step][0]))
		}
	}
	eng.IncDeduce(joins)
	before := eng.ParentLinks()
	deep := 0
	for _, p := range before {
		if before[p] != p {
			deep++
		}
	}
	if deep == 0 {
		t.Fatal("no id sits two links below its root: a compressing read would change nothing")
	}
	multi, denied := eng.PoolReadEid()
	if multi == 0 {
		t.Fatal("no pool task listed a multi-member class")
	}
	if denied != 0 {
		t.Errorf("same denied %d listed members their class", denied)
	}
	after := eng.ParentLinks()
	changed := 0
	for i := range before {
		if before[i] != after[i] {
			changed++
		}
	}
	if changed != 0 {
		t.Errorf("a pool call that only reads E_id rewrote %d of %d parent links (%d ids sat deeper than one link)", changed, len(before), deep)
	}
}
