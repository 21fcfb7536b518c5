package chase_test

import (
	"testing"

	"dcer/internal/chase"
	"dcer/internal/datagen"
	"dcer/internal/mlpred"
)

// TestDepsVisitedProportionalToNewFacts is ROADMAP item 3's win condition
// as a counter: keeping H current costs the watchers of the tuples the new
// facts touch, not a scan of H per round. The scan examined exactly
// DepsRecorded-at-the-time dependencies every round; the watched store must
// stay far below that product — below one visit per recorded dependency
// over the whole run — in every drain mode, batch and incremental, and H
// must still fire.
func TestDepsVisitedProportionalToNewFacts(t *testing.T) {
	for _, g := range []struct {
		name string
		gen  *datagen.Generated
	}{
		{"tpch0.5", datagen.TPCH(datagen.TPCHOptions{Scale: 0.5, Dup: 0.3, Seed: 1})},
		{"tfacc0.2", datagen.TFACC(datagen.TFACCOptions{Scale: 0.2, Dup: 0.3, Seed: 1})},
	} {
		rules, err := g.gen.Rules()
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []engineMode{modeSeq, modeBatched} {
			for _, insert := range []bool{false, true} {
				var eng *chase.Engine
				if insert {
					eng = insertRun(t, g.gen, mode, 4, nil)
				} else {
					eng = mode.engine(t, g.gen.D, rules, mlpred.DefaultRegistry())
					eng.Run()
				}
				s := eng.Stats()
				t.Logf("%s seq=%v insert=%v: recorded %d fired %d visited %d rounds %d", g.name,
					mode.opts.SequentialDeduce, insert, s.DepsRecorded, s.DepsFired, s.DepsVisited, s.Rounds)
				if s.DepsVisited > s.DepsRecorded || 4*s.DepsVisited > s.DepsRecorded*s.Rounds {
					t.Errorf("%s: visited %d dependencies for %d recorded over %d rounds: H is being scanned",
						g.name, s.DepsVisited, s.DepsRecorded, s.Rounds)
				}
				if !mode.opts.SequentialDeduce && (s.DepsFired == 0 || s.DepsVisited == 0) {
					t.Errorf("%s: fired %d, visited %d: H is not doing its job", g.name, s.DepsFired, s.DepsVisited)
				}
			}
		}
	}
}
