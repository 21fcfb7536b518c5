package relation_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dcer/internal/relation"
)

// keyMapSpec names a key map as IndexSet.KeyMap takes it: probing
// (relation, attribute), then the target (relation, attribute).
type keyMapSpec struct{ probeRel, probeAttr, rel, attr int }

// TestIndexSetAddBatchEqualsRebuild grows random datasets in random batches
// through IndexSet.AddBatch, each batch handed over shuffled, and checks
// after every batch that each index equals BuildIndex over the grown
// relation — the same postings, GID-ascending — and that each key map is
// live exactly when a fresh map over the grown dataset can be built, then
// answering every probing row as the fresh one does. Target keys repeat at
// a per-trial rate (zero included), so maps retire at the batch where
// their target first repeats or never; float keys carry NaN, which finds
// nothing, and two of which repeat a key.
func TestIndexSetAddBatchEqualsRebuild(t *testing.T) {
	str, num, flt := relation.TypeString, relation.TypeInt, relation.TypeFloat
	attr := func(n string, ty relation.Type) relation.Attribute { return relation.Attribute{Name: n, Type: ty} }
	db := relation.MustDatabase(
		relation.MustSchema("R", "id", attr("id", str), attr("k", str), attr("f", flt), attr("n", num)),
		relation.MustSchema("P", "id", attr("id", str), attr("ref", str), attr("fref", flt), attr("n", num)),
	)
	const R, P = 0, 1
	maps := []keyMapSpec{
		{P, 1, R, 1}, // P.ref -> R.k
		{P, 2, R, 2}, // P.fref -> R.f
		{R, 1, R, 1}, // R.k -> R.k, probing its own relation
		{R, 0, P, 0}, // R.id -> P.id
		{P, 3, R, 3}, // P.n -> R.n: repeats from the start, never built
	}
	for trial := range 40 {
		rng := rand.New(rand.NewSource(int64(trial)))
		repeat := []float64{0, 0.002, 0.01, 0.05}[trial%4]
		d := relation.NewDataset(db)
		rows := 0
		nextKey := 0
		// key draws a target key: an earlier one at the trial's repeat
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
		// ref draws a probing key: mostly one a target holds or will hold
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
		built := make([]*relation.KeyMap, len(maps))
		for i, m := range maps {
			built[i] = s.KeyMap(m.probeRel, m.probeAttr, m.rel, m.attr)
		}
		for batch := range 1 + rng.Intn(8) {
			ts := make([]relation.TID, rng.Intn(30))
			for i := range ts {
				ts[i] = add().GID
			}
			rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
			s.AddBatch(ts)
			where := fmt.Sprintf("trial %d (repeat rate %g), batch %d", trial, repeat, batch)
			checkIndexes(t, where, d, s)
			checkKeyMaps(t, where, d, maps, built)
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

// checkKeyMaps holds every key map built before the batches to a fresh one
// over d: live exactly when a fresh one can be built, and then finding,
// for every probing tuple, what the fresh one finds.
func checkKeyMaps(t *testing.T, where string, d *relation.Dataset, maps []keyMapSpec, built []*relation.KeyMap) {
	t.Helper()
	fresh := relation.NewIndexSet(d)
	for i, m := range maps {
		want := fresh.KeyMap(m.probeRel, m.probeAttr, m.rel, m.attr)
		got := built[i]
		if live := got != nil && got.Live(); live != (want != nil) {
			t.Fatalf("%s: key map %v live %v, a fresh one builds %v", where, m, live, want != nil)
		}
		if want == nil {
			continue
		}
		for _, p := range d.Relations[m.probeRel].Tuples {
			if g, w := got.Lookup(p.GID), want.Lookup(p.GID); !slices.Equal(g, w) {
				t.Fatalf("%s: key map %v, probing tuple %d: finds %v, a fresh one %v", where, m, p.GID, g, w)
			}
		}
	}
}
