package chase

import (
	"fmt"

	"dcer/internal/relation"
)

// InsertTuples implements the ΔD extension sketched in the paper's
// Section V-A remark: given newly appended tuples, the engine inspects
// only the valuations that involve a new tuple and recursively propagates
// the consequences, instead of re-chasing from scratch.
//
// A batch is exactly the tuples appended to the engine's dataset (via
// Dataset.Append) since New or the previous call, each listed once, in any
// order. A tuple the engine already holds, one listed twice and one
// appended but left out are errors, reported before any state changes.
// Only unscoped engines (built with New, rules ranging over the whole
// dataset) support incremental updates. The returned facts are the newly
// deduced matches and validated predictions.
//
// The seed pass is semi-naive over the insertion epoch: a task seeds one
// rule variable with new tuples and restricts the variables before it to
// tuples older than the batch, so a valuation whose new tuples sit at the
// variables S is enumerated once, seeded at the first of S (DESIGN.md §6).
// The tasks run on the pool and merge in task order, as Deduce's first
// pass does.
func (e *Engine) InsertTuples(tuples []*relation.Tuple) ([]Fact, error) {
	for _, br := range e.rules {
		if br.scope != e.d {
			return nil, fmt.Errorf("chase: InsertTuples requires an unscoped engine")
		}
	}
	if err := e.checkBatch(tuples); err != nil {
		return nil, err
	}
	epoch := relation.TID(e.held)
	e.held = e.d.Size()
	// Singleton classes are implicit in the class table (membersOf), so
	// growing it and the union-find is the only per-tuple bookkeeping.
	e.uf.Grow(e.held)
	e.classSlot = append(e.classSlot, make([]int32, e.held-len(e.classSlot))...)
	// Maintain every materialized index (shared and rule-private).
	seenIx := make(map[*relation.IndexSet]bool)
	for _, br := range e.rules {
		if !seenIx[br.ix] {
			seenIx[br.ix] = true
			br.ix.AddBatch(tuples)
		}
	}
	e.resetSimJoins(tuples)
	// Appending the tuples may have interned string payloads that a
	// constant predicate could not resolve at compile time; retry those
	// probe words now, while no enumeration is in flight.
	e.refreshPlanConsts()
	// A new tuple sharing a literal id value with an existing one denotes
	// the same entity; merge through the regular fact path so dependent
	// valuations are re-inspected. The engine's id index answers the
	// duplicate probe in O(1) per tuple instead of scanning the relation.
	e.delta = e.delta[:0]
	for _, t := range tuples {
		w := t.IDWord()
		if first, ok := e.idIndex[t.Rel][w]; ok {
			if first != t.GID {
				e.applyFact(MatchFact(first, t.GID))
			}
		} else {
			e.idIndex[t.Rel][w] = t.GID
		}
	}
	// Update-driven pass: only valuations involving a new tuple are new.
	tasks := e.insertTasks(tuples)
	run := func(c *evalCtx, tk *insertTask) {
		c.cut, c.epoch, c.seeded = tk.v, epoch, e.seedHook
		for _, t := range tk.run {
			seed := c.seedFor(len(tk.br.r.Vars))
			seed[tk.v] = t
			e.enumerateRule(c, tk.br, seed)
		}
		c.cut, c.seeded = 0, nil
	}
	ruleOf := func(i int) *boundRule { return tasks[i].br }
	e.pool(len(tasks), func(i int, c *evalCtx) { run(c, &tasks[i]) },
		e.timedMerge(ruleOf, e.mergeCtx))
	e.drain()
	return append([]Fact(nil), e.delta...), nil
}

// checkBatch holds a batch to InsertTuples' contract: exactly the tuples
// appended since the engine last took tuples in, each once. A root
// dataset's GIDs are positions, so those are the GIDs from held on.
func (e *Engine) checkBatch(tuples []*relation.Tuple) error {
	listed := make([]bool, e.d.Size()-e.held)
	for _, t := range tuples {
		k := int(t.GID) - e.held
		switch {
		case e.d.Tuple(t.GID) != t || k >= len(listed):
			return fmt.Errorf("chase: tuple %d is not part of this engine's dataset", t.GID)
		case k < 0:
			return fmt.Errorf("chase: tuple %d is already held by the engine", t.GID)
		case listed[k]:
			return fmt.Errorf("chase: tuple %d is listed twice", t.GID)
		}
		listed[k] = true
	}
	for k, ok := range listed {
		if !ok {
			return fmt.Errorf("chase: tuple %d was appended but is not in the batch", e.held+k)
		}
	}
	return nil
}

// insertTask is one task of InsertTuples' seed pass: rule br with variable
// v bound to each tuple of run in turn.
type insertTask struct {
	br  *boundRule
	v   int
	run []*relation.Tuple
}

// maxInsertRun caps the new tuples of one insert task.
const maxInsertRun = 64

// insertTasks lists the seed pass of a batch: for each rule and variable,
// the batch's tuples of the variable's relation in batch order, cut into
// runs of min(maxInsertRun, ⌈k/8⌉) of their k tuples, so that a dozen new
// rows of a small relation that joins with everything become a dozen tasks
// instead of one that outlasts the rest. The cut depends on the batch
// alone, never on GOMAXPROCS, so the merged fact sequence is the same at
// every width; in order, the list is the sequential seed loop.
func (e *Engine) insertTasks(tuples []*relation.Tuple) []insertTask {
	byRel := make([][]*relation.Tuple, len(e.d.Relations))
	for _, t := range tuples {
		byRel[t.Rel] = append(byRel[t.Rel], t)
	}
	var tasks []insertTask
	for _, br := range e.rules {
		for v, rv := range br.r.Vars {
			ts := byRel[rv.RelIdx]
			size := min(maxInsertRun, max(1, (len(ts)+7)/8))
			for lo := 0; lo < len(ts); lo += size {
				tasks = append(tasks, insertTask{br: br, v: v, run: ts[lo:min(lo+size, len(ts))]})
			}
		}
	}
	return tasks
}
