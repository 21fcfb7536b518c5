package relation_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dcer/internal/chase"
	"dcer/internal/datagen"
	"dcer/internal/hypart"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
)

// TestIndexSetAddBatchEqualsRebuild grows random datasets in random batches
// through IndexSet.AddBatch, each batch handed over shuffled, and checks
// after every batch that each index equals BuildIndex over the grown
// relation — the same postings, GID-ascending. R's keys repeat at a
// per-trial rate (zero included), so an index that starts unique gains
// its first repeated key at some batch or never; P's keys reference R's,
// sometimes one that arrives later; float keys carry NaN.
func TestIndexSetAddBatchEqualsRebuild(t *testing.T) {
	str, num, flt := relation.TypeString, relation.TypeInt, relation.TypeFloat
	attr := func(n string, ty relation.Type) relation.Attribute { return relation.Attribute{Name: n, Type: ty} }
	db := relation.MustDatabase(
		relation.MustSchema("R", "id", attr("id", str), attr("k", str), attr("f", flt), attr("n", num)),
		relation.MustSchema("P", "id", attr("id", str), attr("ref", str), attr("fref", flt), attr("n", num)),
	)
	for trial := range 40 {
		rng := rand.New(rand.NewSource(int64(trial)))
		repeat := []float64{0, 0.002, 0.01, 0.05}[trial%4]
		d := relation.NewDataset(db)
		rows := 0
		nextKey := 0
		// key draws an R key: an earlier one at the trial's repeat
		// rate, else a fresh one.
		key := func() int {
			if nextKey > 0 && rng.Float64() < repeat {
				return rng.Intn(nextKey)
			}
			nextKey++
			return nextKey - 1
		}
		fl := func(k int) relation.Value {
			if rng.Float64() < 0.01 {
				return relation.F(math.NaN())
			}
			return relation.F(float64(k) + 0.5)
		}
		// ref draws a P key: mostly one an R tuple holds or will hold
		// soon, sometimes none.
		ref := func() int { return rng.Intn(nextKey+8) - 2 }
		add := func() *relation.Tuple {
			rows++
			id := relation.S(fmt.Sprintf("i%d", rows))
			n := relation.I(int64(rng.Intn(5)))
			if rng.Intn(2) == 0 {
				k := key()
				return d.MustAppend("R", id, relation.S(fmt.Sprintf("k%d", k)), fl(k), n)
			}
			k := ref()
			return d.MustAppend("P", id, relation.S(fmt.Sprintf("k%d", k)), fl(k), n)
		}
		for range 20 + rng.Intn(40) {
			add()
		}
		s := relation.NewIndexSet(d)
		for rel, r := range d.Relations {
			for a := range r.Schema.Attrs {
				s.For(rel, a)
			}
		}
		for batch := range 1 + rng.Intn(8) {
			ts := make([]relation.TID, rng.Intn(30))
			for i := range ts {
				ts[i] = add().GID
			}
			rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
			if err := s.AddBatch(ts); err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("trial %d (repeat rate %g), batch %d", trial, repeat, batch)
			checkIndexes(t, where, d, s)
		}
	}
}

// checkIndexes compares every index of s with BuildIndex over d.
func checkIndexes(t *testing.T, where string, d *relation.Dataset, s *relation.IndexSet) {
	t.Helper()
	for rel, r := range d.Relations {
		for a := range r.Schema.Attrs {
			got, want := s.For(rel, a), relation.BuildIndex(rel, r, a)
			if got.Distinct() != want.Distinct() {
				t.Fatalf("%s: %s.%d: %d distinct keys, rebuilt %d", where, r.Schema.Name, a, got.Distinct(), want.Distinct())
			}
			want.Each(func(w uint64, post []relation.TID) {
				if g := got.LookupWord(w); !slices.Equal(g, post) {
					t.Fatalf("%s: %s.%d key %#x: postings %v, rebuilt %v", where, r.Schema.Name, a, w, g, post)
				}
				if !slices.IsSorted(post) {
					t.Fatalf("%s: %s.%d key %#x: postings %v not GID-ascending", where, r.Schema.Name, a, w, post)
				}
			})
		}
	}
}

// TestIndexSetSharedAcrossViews holds an IndexSet shared by the engines of
// one process (IndexSet.Share) to what each engine used to build alone:
//   - 8 goroutines of TPCH 0.2 ask for every index through handles of
//     their own, half of them after binding a DMatch worker engine (the
//     cells of one of a 2-worker partition's workers) against their
//     handle; each (relation, attribute) is built once over all handles
//     and engines (Built, Stats.IndexBuilds), and every caller gets the
//     same *Index;
//   - AddBatch on the shared set refuses and touches no posting;
//   - InsertTuples on an engine bound against the set returns an error
//     before it touches the set.
func TestIndexSetSharedAcrossViews(t *testing.T) {
	g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.2, Dup: 0.3, Seed: 1})
	d := g.D
	rules, err := g.Rules()
	if err != nil {
		t.Fatal(err)
	}
	part, err := hypart.Partition(d, rules, 2, hypart.Options{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int, len(part.Blocks))
	for b := range part.Blocks {
		assign[b] = part.Blocks[b].Worker
	}
	cellsOf := func(w int) []chase.Cells {
		cells := make([]chase.Cells, len(part.Cubes))
		for r := range part.Cubes {
			cells[r] = chase.Cells{Cube: &part.Cubes[r], Owned: part.Cubes[r].Owned(assign, w)}
		}
		return cells
	}
	set := relation.NewIndexSet(d)

	type key struct{ rel, attr int }
	var keys []key
	for rel, r := range d.Relations {
		for a := range r.Schema.Attrs {
			keys = append(keys, key{rel, a})
		}
	}
	const goroutines = 8
	handles := make([]*relation.IndexSet, goroutines)
	engines := make([]*chase.Engine, goroutines)
	got := make([][]*relation.Index, goroutines)
	var wg sync.WaitGroup
	for i := range goroutines {
		handles[i] = set.Share()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := handles[i]
			if i%2 == 1 {
				eng, err := chase.NewScoped(d, rules, cellsOf(i/2%2), h, mlpred.DefaultRegistry(), chase.Options{ShareIndexes: true})
				if err != nil {
					t.Error(err)
					return
				}
				engines[i] = eng
			}
			got[i] = make([]*relation.Index, len(keys))
			for j := range keys {
				k := keys[(j+i*7)%len(keys)] // each goroutine in its own order
				got[i][(j+i*7)%len(keys)] = h.For(k.rel, k.attr)
			}
		}(i)
	}
	wg.Wait()
	built := 0
	for i, h := range handles {
		built += h.Built()
		if engines[i] != nil {
			built += engines[i].Stats().IndexBuilds
		}
	}
	if built != len(keys) || set.Built() != 0 {
		t.Errorf("%d handles and their engines built %d indexes (the creating handle %d), want %d", goroutines, built, set.Built(), len(keys))
	}
	for j := range keys {
		for i := range goroutines {
			if got[i][j] != got[0][j] {
				t.Errorf("%v: goroutines 0 and %d got different indexes", keys[j], i)
			}
		}
	}
	if set.Built() != 0 {
		t.Errorf("a lookup after the builds built %d indexes", set.Built())
	}

	// Refusals: a tuple appended to the dataset reaches no posting.
	eng := engines[1]
	ix := set.For(0, 0)
	r := d.Relations[0]
	vals := make([]relation.Value, r.Schema.Arity())
	for a := range vals {
		vals[a] = r.Val(r.TIDs()[0], a)
	}
	tu := d.MustAppend(r.Schema.Name, vals...)
	if _, err := eng.InsertTuples([]*relation.Tuple{tu}); err == nil {
		t.Error("InsertTuples on a worker engine: no error")
	}
	if err := handles[0].AddBatch([]relation.TID{tu.GID}); err == nil {
		t.Error("AddBatch on a shared set: no error")
	}
	if slices.Contains(ix.LookupWord(r.Word(tu.GID, 0)), tu.GID) {
		t.Error("a refused append reached the shared postings")
	}
}
