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
// The tuples must already have been appended to the engine's dataset (via
// Dataset.Append) after the engine was constructed. Only unscoped engines
// (built with New, rules ranging over the whole dataset) support
// incremental updates. The returned facts are the newly deduced matches
// and validated predictions.
func (e *Engine) InsertTuples(tuples []*relation.Tuple) ([]Fact, error) {
	for _, br := range e.rules {
		if br.scope != e.d {
			return nil, fmt.Errorf("chase: InsertTuples requires an unscoped engine")
		}
	}
	// Extend the id space and membership bookkeeping.
	maxGID := -1
	for _, t := range tuples {
		if e.d.Tuple(t.GID) != t {
			return nil, fmt.Errorf("chase: tuple %d is not part of this engine's dataset", t.GID)
		}
		if int(t.GID) > maxGID {
			maxGID = int(t.GID)
		}
	}
	// Singleton classes are implicit in the members map (membersOf), so
	// growing the union-find is the only per-tuple bookkeeping needed.
	e.uf.Grow(maxGID + 1)
	// Maintain every materialized index (shared and rule-private).
	seenIx := make(map[*relation.IndexSet]bool)
	for _, br := range e.rules {
		if seenIx[br.ix] {
			continue
		}
		seenIx[br.ix] = true
		for _, t := range tuples {
			br.ix.Add(t)
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
	// Update-driven pass: only valuations involving a new tuple are new,
	// so seed each rule variable with each compatible new tuple.
	for _, br := range e.rules {
		for vi, v := range br.r.Vars {
			for _, t := range tuples {
				if t.Rel != v.RelIdx {
					continue
				}
				seed := e.ctx.seedFor(len(br.r.Vars))
				seed[vi] = t
				e.enumerateRule(br, seed)
			}
		}
	}
	e.drain()
	return append([]Fact(nil), e.delta...), nil
}
