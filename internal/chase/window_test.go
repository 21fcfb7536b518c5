package chase_test

import (
	"fmt"
	"math/rand"
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
// postings, E_id classes and similarity joins — is strictly
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

		// The worker engines a DMatch run builds: each over the whole
		// dataset, owning its cells of every rule's cube, driven to the
		// run's Γ by the facts the master would replay to it.
		for _, workers := range []int{2, 3} {
			res, err := dmatch.Run(g.D, rules, reg, dmatch.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			part, err := hypart.Partition(g.D, rules, workers, hypart.Options{Share: true})
			if err != nil {
				t.Fatal(err)
			}
			shared := relation.NewIndexSet(g.D) // the process's one set, as in DMatch
			for w := range workers {
				we, err := chase.NewScoped(g.D, rules, workerCells(part, w), shared, reg, chase.Options{ShareIndexes: true})
				if err != nil {
					t.Fatal(err)
				}
				we.Deduce()
				we.IncDeduce(append(append([]chase.Fact(nil), res.Matches...), res.Validated...))
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

// workerCells is worker w's share of part: per rule, the cube and the
// cells the partition's block assignment gives w.
func workerCells(part *hypart.Result, w int) []chase.Cells {
	assign := make([]int, len(part.Blocks))
	for b := range part.Blocks {
		assign[b] = part.Blocks[b].Worker
	}
	cells := make([]chase.Cells, len(part.Cubes))
	for r := range part.Cubes {
		cells[r] = chase.Cells{Cube: &part.Cubes[r], Owned: part.Cubes[r].Owned(assign, w)}
	}
	return cells
}

// TestGIDWindow holds gidWindow to a linear filter over random ascending
// lists, the empty list included, for the open window, windows inside,
// across and past either end of the list, and empty windows.
func TestGIDWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := range 2000 {
		var ts []relation.TID
		for g := relation.TID(rng.Intn(4)); len(ts) < rng.Intn(40); g += relation.TID(1 + rng.Intn(5)) {
			ts = append(ts, g)
		}
		top := relation.TID(200)
		if len(ts) > 0 {
			top = ts[len(ts)-1] + 5
		}
		lo, hi := relation.TID(rng.Intn(int(top))), relation.TID(rng.Intn(int(top)))
		switch trial % 5 {
		case 0:
			lo, hi = 0, chase.OpenWindowHi
		case 1:
			hi = chase.OpenWindowHi // past the top end
		case 2:
			lo = 0 // below the bottom end
		}
		var want []relation.TID
		for _, g := range ts {
			if g >= lo && g < hi {
				want = append(want, g)
			}
		}
		if got := chase.GIDWindow(ts, lo, hi); !slices.Equal(got, want) {
			t.Fatalf("window [%d, %d) of %v: got %v, want %v", lo, hi, ts, got, want)
		}
	}
}
