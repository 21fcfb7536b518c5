package chase

import (
	"dcer/internal/relation"
	"dcer/internal/unionfind"
)

// BuildEquivalence materializes the id-equivalence relation E_id that
// holds before any rule applies: tuples sharing a literal id value within a
// relation are merged, as New merges them, keyed like it by the packed id
// word. Provenance proofs start from it, and the DMatch master grows the
// global Γ on it from the workers' deltas.
func BuildEquivalence(d *relation.Dataset) *unionfind.UnionFind {
	uf := unionfind.New(d.IDSpace())
	for _, rel := range d.Relations {
		byID := make(map[uint64]relation.TID, len(rel.Tuples))
		for _, t := range rel.Tuples {
			w := t.IDWord()
			if first, ok := byID[w]; ok {
				uf.Union(int(first), int(t.GID))
			} else {
				byID[w] = t.GID
			}
		}
	}
	return uf
}
