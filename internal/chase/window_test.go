package chase_test

import (
	"fmt"
	"slices"
	"testing"

	"dcer/internal/chase"
	"dcer/internal/datagen"
	"dcer/internal/dmatch"
	"dcer/internal/hypart"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
)

// TestCandidateListsAscending pins the invariant the enumeration's GID
// window rests on: every candidate list a join step can draw — scans,
// postings, key maps, E_id classes and similarity joins — is strictly
// GID-ascending, so the insert epoch and the symmetry order are answered
// by binary search. It is checked on a root engine over TPCH and TFACC,
// on the worker engines of a DMatch run with 2 and 3 workers, after each
// of 16 InsertTuples batches, and after each of 4 batches handed over in
// reverse GID order.
func TestCandidateListsAscending(t *testing.T) {
	reg := mlpred.DefaultRegistry()
	tpchScale, tfaccScale := 0.3, 0.2
	if testing.Short() {
		tpchScale, tfaccScale = 0.2, 0.1
	}
	gens := map[string]*datagen.Generated{
		"TPCH":  datagen.TPCH(datagen.TPCHOptions{Scale: tpchScale, Dup: 0.3, Seed: 1}),
		"TFACC": datagen.TFACC(datagen.TFACCOptions{Scale: tfaccScale, Dup: 0.3, Seed: 1}),
	}
	check := func(what string, e *chase.Engine) {
		t.Helper()
		if err := e.CheckCandidateOrder(); err != nil {
			t.Errorf("%s: %v", what, err)
		}
	}
	for name, g := range gens {
		rules, err := g.Rules()
		if err != nil {
			t.Fatal(err)
		}

		e := modeDefault.engine(t, g.D, rules, reg)
		check(name+" root engine before Run", e)
		e.Run()
		check(name+" root engine after Run", e)

		// The worker engines a DMatch run builds: each over its fragment,
		// with every rule scoped to the worker's blocks for it (hypart's
		// ids), driven to the run's Γ by the facts the master would
		// replay to it.
		for _, workers := range []int{2, 3} {
			res, err := dmatch.Run(g.D, rules, reg, dmatch.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			part, err := hypart.Partition(g.D, rules, workers, hypart.Options{Share: true})
			if err != nil {
				t.Fatal(err)
			}
			for w := range part.Fragments {
				fd := g.D.Fragment(part.Fragments[w])
				scopes := make([]*relation.Dataset, len(rules))
				for ri, ids := range part.RuleFragments[w] {
					scopes[ri] = g.D.Fragment(ids)
				}
				we, err := chase.NewScoped(fd, rules, scopes, reg, chase.Options{ShareIndexes: true})
				if err != nil {
					t.Fatal(err)
				}
				we.Deduce()
				replay := append([]chase.Fact(nil), res.Matches...)
				for _, f := range res.Validated {
					if fd.Has(f.A) || fd.Has(f.B) {
						replay = append(replay, f)
					}
				}
				we.IncDeduce(replay)
				check(fmt.Sprintf("%s, %d workers: worker %d", name, workers, w), we)
			}
		}

		batch := 0
		insertRun(t, g, modeDefault, 16, nil, func(e *chase.Engine) {
			batch++
			check(fmt.Sprintf("%s after InsertTuples batch %d", name, batch), e)
		})

		// InsertTuples takes a batch in any order: each of four handed over
		// in reverse, into an engine that started empty, must still leave
		// every list ascending.
		d := relation.NewDataset(g.D.DB)
		e = modeDefault.engine(t, d, rules, reg)
		e.Run()
		all := g.D.Tuples()
		for b := range 4 {
			var batch []*relation.Tuple
			for _, tt := range all[b*len(all)/4 : (b+1)*len(all)/4] {
				batch = append(batch, d.MustAppend(g.D.DB.Schemas[tt.Rel].Name, tt.Values()...))
			}
			slices.Reverse(batch)
			if _, err := e.InsertTuples(batch); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s after reversed InsertTuples batch %d", name, b+1), e)
		}
	}
}
