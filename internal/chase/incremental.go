package chase

import (
	"fmt"
	"math"

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
// After the bookkeeping, the batch is one seed pass from the tuples no
// seed pass has seen (seedPass): the batch itself after Run or an earlier
// batch, the whole dataset when the engine never deduced.
func (e *Engine) InsertTuples(tuples []*relation.Tuple) ([]Fact, error) {
	for _, br := range e.rules {
		if br.scope != e.d {
			return nil, fmt.Errorf("chase: InsertTuples requires an unscoped engine")
		}
	}
	if err := e.checkBatch(tuples); err != nil {
		return nil, err
	}
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
	e.seedPass(relation.TID(e.seeded))
	e.drain()
	return append([]Fact(nil), e.delta...), nil
}

// seedTask is one task of a seed pass: rule br along order o, whose first
// step binds variable v to the tuples of its root access in the GID morsel
// [lo, hi), with every variable of older cut to GIDs below epoch.
type seedTask struct {
	br            *boundRule
	o             *joinOrder
	v             int
	older         uint64
	lo, hi, epoch relation.TID
}

// seedMorsel caps the tuples of one seed task's morsel.
const seedMorsel = 256

// seedPass enumerates, once each, the valuations that bind a tuple of GID
// ≥ epoch, semi-naively over the rank order in which orders[0] binds the
// variables: the tasks of the variable ranked r (seeds[r]) bind it from
// its root access cut to GIDs ≥ epoch and cut the variables ranked before
// it to GIDs < epoch (window), so a valuation whose new tuples sit at the
// variables S is enumerated by the tasks of the first of S alone
// (DESIGN.md §6). Past a variable whose relation holds no tuple older than
// epoch there is nothing to enumerate: at epoch 0 only the first variable
// has tasks, which walk orders[0] whole. A list of k tuples is cut
// into GID morsels of min(seedMorsel, ⌈k/8⌉), one task each: by the list
// alone, never by GOMAXPROCS, so the merged fact sequence is the same at
// every width.
func (e *Engine) seedPass(epoch relation.TID) {
	var tasks []seedTask
	for _, br := range e.rules {
		var older uint64
		for r := range br.seeds {
			o := &br.seeds[r]
			v := o.steps[0].v
			ts := gidWindow(br.rootCands(&o.steps[0]), epoch, math.MaxInt32)
			size := min(seedMorsel, max(1, (len(ts)+7)/8))
			for i := 0; i < len(ts); i += size {
				tk := seedTask{br: br, o: o, v: v, older: older, lo: ts[i].GID, hi: math.MaxInt32, epoch: epoch}
				if i+size < len(ts) {
					tk.hi = ts[i+size].GID
				}
				tasks = append(tasks, tk)
			}
			if rel := br.scope.Relations[br.r.Vars[v].RelIdx].Tuples; len(rel) == 0 || rel[0].GID >= epoch {
				break
			}
			older |= 1 << v
		}
	}
	e.seeded = e.held
	e.pool(len(tasks), func(i int, c *evalCtx) {
		c.task, c.seeded = &tasks[i], e.seedHook
		e.enumerateRule(c, tasks[i].br, tasks[i].o)
	}, func(i int, o *taskOut) { e.timedMerge(tasks[i].br, o) })
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
