package chase

import (
	"dcer/internal/relation"
	"dcer/internal/unionfind"
)

// BuildEquivalence materializes the id-equivalence relation E_id that
// holds before any rule applies: tuples sharing a literal id value within a
// relation are merged, by the scan New pre-merges them with
// (idDuplicates). Provenance proofs start from it, and the DMatch master
// grows the global Γ on it from the workers' deltas.
func BuildEquivalence(d *relation.Dataset) *unionfind.UnionFind {
	uf := unionfind.New(d.Size())
	for _, rel := range d.Relations {
		idDuplicates(rel, func(first, t relation.TID) { uf.Union(int(first), int(t)) })
	}
	return uf
}

// idDuplicates scans rel's tuples in GID order and calls merge(first, t)
// for every tuple t whose literal id value an earlier tuple first carries.
// Tuples sharing a literal id value within a relation denote the same
// entity by definition. It returns the map from each id value's packed
// word to its first tuple: words are exact within a relation (one typed id
// column), so no canonical key strings are built.
func idDuplicates(rel *relation.Relation, merge func(first, t relation.TID)) map[uint64]relation.TID {
	byID := make(map[uint64]relation.TID, len(rel.TIDs()))
	for _, t := range rel.TIDs() {
		w := rel.Word(t, rel.Schema.IDAttr)
		if first, ok := byID[w]; ok {
			merge(first, t)
		} else {
			byID[w] = t
		}
	}
	return byID
}
