package hypart_test

import (
	"slices"
	"testing"

	"dcer/internal/datagen"
	"dcer/internal/hypart"
	"dcer/internal/relation"
)

// TestPartitionFragment partitions fragments of TPCH 0.5: the fragment of
// every GID partitions as its root does, block for block, and a fragment
// of every other GID places exactly its own members of the tuples the
// root places (HyPart scans the scan lists, Relation.TIDs, which a
// fragment carries; its Relation.Tuples are nil).
func TestPartitionFragment(t *testing.T) {
	g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.5, Dup: 0.3, Seed: 1})
	rules, err := g.Rules()
	if err != nil {
		t.Fatal(err)
	}
	d := g.D
	var all, half []relation.TID
	for id := range d.IDSpace() {
		all = append(all, relation.TID(id))
		if id%2 == 0 {
			half = append(half, relation.TID(id))
		}
	}
	placed := func(res *hypart.Result) []relation.TID {
		var set relation.TIDSet
		for _, b := range res.Blocks {
			set.Add(b.GIDs)
		}
		return set.Drain()
	}
	for _, n := range []int{2, 3} {
		for _, share := range []bool{true, false} {
			opts := hypart.Options{Share: share}
			root, err := hypart.Partition(d, rules, n, opts)
			if err != nil {
				t.Fatal(err)
			}
			whole, err := hypart.Partition(d.Fragment(all), rules, n, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := partitionDigest(whole), partitionDigest(root); got != want {
				t.Errorf("n=%d share=%v: the whole fragment partitions to %s, the root to %s", n, share, got, want)
			}
			if len(root.Blocks) == 0 || root.Stats.PlacedTuples == 0 {
				t.Fatalf("n=%d share=%v: the root places nothing", n, share)
			}
			res, err := hypart.Partition(d.Fragment(half), rules, n, opts)
			if err != nil {
				t.Fatal(err)
			}
			var want []relation.TID
			for _, id := range placed(root) {
				if id%2 == 0 {
					want = append(want, id)
				}
			}
			if got := placed(res); !slices.Equal(got, want) {
				t.Errorf("n=%d share=%v: the half fragment places %d tuples, want its %d members the root places", n, share, len(got), len(want))
			}
		}
	}
}
