package dmatch

import (
	"dcer/internal/chase"
	"dcer/internal/health"
	"dcer/internal/provenance"
	"dcer/internal/relation"
	"dcer/internal/unionfind"
)

// observeMasterAccuracy feeds the accuracy observatory from the globally
// folded matches — the authoritative stream, since workers only see the
// facts of their cells. The new suffix since the previous superstep is
// sampled by Accuracy.ObserveFresh, false positives are attributed by
// looking the pair up across the per-worker provenance logs, and recall
// is probed against the global equivalence. Returns the new high-water
// mark into matches.
func observeMasterAccuracy(acc *health.Accuracy, matches []chase.Fact, seen int,
	provLogs []*provenance.Log, guf *unionfind.UnionFind) int {
	var attribute func(p [2]relation.TID) string
	if len(provLogs) > 0 {
		attribute = func(p [2]relation.TID) string {
			id := provenance.MatchID(p[0], p[1])
			for _, l := range provLogs {
				ent, ok := l.Lookup(id)
				if !ok {
					continue
				}
				if ent.Rule != "" {
					return ent.Rule
				}
				if ent.Origin != provenance.OriginExternal {
					return ent.Origin.String()
				}
				// An arrival record; keep looking for the
				// originating worker's derivation.
			}
			return ""
		}
	}
	seen = acc.ObserveFresh(seen, len(matches), func(i int) [2]relation.TID {
		return [2]relation.TID{matches[i].A, matches[i].B}
	}, attribute)
	acc.ObserveRecall(func(a, b relation.TID) bool { return guf.Same(int(a), int(b)) })
	return seen
}
