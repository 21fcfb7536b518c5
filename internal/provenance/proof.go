package provenance

import (
	"errors"
	"sort"

	"dcer/internal/relation"
	"dcer/internal/unionfind"
)

// ErrNotEntailed reports that the target pair is not matched by the
// recorded facts (plus the base equivalence), so no proof exists.
var ErrNotEntailed = errors.New("provenance: pair not entailed by recorded facts")

// ErrIncomplete reports that a proof exists but the log cannot supply it:
// a prerequisite's derivation was dropped (capacity) or never offered.
// Callers fall back to the reference chase in that case.
var ErrIncomplete = errors.New("provenance: log incomplete, derivation missing")

// Proof extracts a justification of target from the log: a subsequence of
// the recorded entries, in record order (a valid derivation order), whose
// facts suffice to match the pair. base is the pre-chase id equivalence of
// the dataset — literal id-value duplicates merged at setup, which need no
// recorded derivation (chase.BuildEquivalence(d) supplies it).
//
// The extraction mirrors complexity.ProofOf: seed the need-set with every
// recorded match inside the target's final equivalence class (the sound
// over-approximation — any of those merges may be on the path connecting
// the pair), then close backwards over the recorded dependency edges. ML
// dependencies resolve to their own entries; match dependencies already
// implied by base need no entry.
func (l *Log) Proof(target [2]relation.TID, base *unionfind.UnionFind) ([]Entry, error) {
	if l == nil {
		return nil, ErrIncomplete
	}
	entries := l.Entries()

	// Final equivalence = base + every recorded match.
	uf := base.Clone()
	max := uf.Len()
	for i := range entries {
		f := entries[i].Fact
		if int(f.A)+1 > max {
			max = int(f.A) + 1
		}
		if int(f.B)+1 > max {
			max = int(f.B) + 1
		}
	}
	uf.Grow(max)
	for i := range entries {
		if entries[i].Fact.Kind == KindMatch {
			uf.Union(int(entries[i].Fact.A), int(entries[i].Fact.B))
		}
	}
	a, b := int(target[0]), int(target[1])
	if a >= uf.Len() || b >= uf.Len() || !uf.Same(a, b) {
		return nil, ErrNotEntailed
	}

	// Index entries by canonical fact and group match entries by final
	// class root, working over the snapshot so the extraction is stable
	// even if the engine is still recording.
	index := make(map[FactID]int, len(entries))
	byRoot := make(map[int][]int)
	for i := range entries {
		f := entries[i].Fact.canon()
		if _, dup := index[f]; !dup {
			index[f] = i
		}
		if f.Kind == KindMatch {
			r := uf.Find(int(f.A))
			byRoot[r] = append(byRoot[r], i)
		}
	}

	need := make(map[int]bool)
	var work []int
	add := func(i int) {
		if !need[i] {
			need[i] = true
			work = append(work, i)
		}
	}
	// Seed: every recorded match in the target's class.
	for _, i := range byRoot[uf.Find(a)] {
		add(i)
	}
	// Backward closure over recorded dependency edges.
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		for _, dep := range entries[i].Deps {
			dep = dep.canon()
			if j, ok := index[dep]; ok {
				add(j)
				continue
			}
			if dep.Kind == KindMatch {
				// No entry: sound only if the base equivalence already
				// implies it (a setup id-dup merge, checkable against D).
				if int(dep.A) < base.Len() && int(dep.B) < base.Len() && base.Same(int(dep.A), int(dep.B)) {
					continue
				}
				// Otherwise the merge chain connecting the dep must be
				// recorded somewhere in its class; pull the whole class in.
				if int(dep.A) < uf.Len() {
					if cls := byRoot[uf.Find(int(dep.A))]; len(cls) > 0 {
						for _, j := range cls {
							add(j)
						}
						continue
					}
				}
				return nil, ErrIncomplete
			}
			// A consumed ML validation with no recorded derivation: the
			// log missed it (dropped at capacity).
			return nil, ErrIncomplete
		}
	}

	proof := make([]int, 0, len(need))
	for i := range need {
		proof = append(proof, i)
	}
	sort.Ints(proof)
	out := make([]Entry, len(proof))
	for k, i := range proof {
		out[k] = entries[i]
	}
	return out, nil
}

// Merge stitches per-worker logs of a DMatch run into one global log in a
// valid derivation order. Entries sort by (superstep, worker, in-log
// sequence); within a superstep a worker consumes only its own earlier
// entries and facts routed in previous supersteps, and a routed fact's
// arrival record (OriginExternal) always carries a later superstep than
// the originating worker's derivation — so the sort is a topological
// order of the cross-worker dependency edges, and first-wins per fact
// keeps the real derivation over arrival records.
func Merge(logs ...*Log) *Log {
	type keyed struct {
		step, worker, seq int
		e                 Entry
	}
	var all []keyed
	var dropped int64
	for _, l := range logs {
		for seq, e := range l.Entries() {
			all = append(all, keyed{step: e.Step, worker: e.Worker, seq: seq, e: e})
		}
		dropped += l.Dropped()
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].step != all[j].step {
			return all[i].step < all[j].step
		}
		if all[i].worker != all[j].worker {
			return all[i].worker < all[j].worker
		}
		return all[i].seq < all[j].seq
	})
	m := NewLog(-1)
	for _, k := range all {
		e := k.e
		// Record stamps worker/step from the log's own state; restore the
		// entry's origin stamps afterwards.
		key := e.Fact.canon()
		if _, dup := m.index[key]; dup {
			continue
		}
		m.index[key] = len(m.entries)
		m.entries = append(m.entries, e)
	}
	m.dropped.Store(dropped)
	return m
}
