package hypart_test

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"dcer/internal/datagen"
	"dcer/internal/hypart"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

// checkPartitionEquivalent asserts the sharded partitioner is byte-identical
// to its own sequential path (GOMAXPROCS 1) on one instance, for several
// shard counts, and that the seed-era reference partitioner agrees on every
// schedule-independent invariant: block sizes and hosts included.
func checkPartitionEquivalent(t *testing.T, d *relation.Dataset, rules []*rule.Rule, n int) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	seq, err := hypart.Partition(d, rules, n, hypart.Options{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 8} {
		runtime.GOMAXPROCS(shards)
		par, err := hypart.Partition(d, rules, n, hypart.Options{Share: true})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(par.Cubes, seq.Cubes) {
			t.Fatalf("shards=%d: cubes differ from sequential path", shards)
		}
		if !reflect.DeepEqual(par.Blocks, seq.Blocks) {
			t.Fatalf("shards=%d: virtual blocks differ from sequential path", shards)
		}
		ps, ss := par.Stats, seq.Stats
		ps.Shards, ss.Shards = 0, 0
		if ps != ss {
			t.Fatalf("shards=%d: stats differ:\n  par %+v\n  seq %+v", shards, ps, ss)
		}
	}
	// The reference implementation assigns blocks to workers with a
	// different LPT tie-break, so workers' shares may differ; every
	// assignment-independent quantity must agree exactly, and under
	// Partition's assignment its lists must give the same hosts and
	// fragment bounds.
	ref, _, err := hypart.PartitionReference(d, rules, n, hypart.Options{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.Blocks != seq.Stats.Blocks {
		t.Errorf("reference found %d blocks, rewrite %d", ref.Stats.Blocks, seq.Stats.Blocks)
	}
	if ref.Stats.GeneratedTuples != seq.Stats.GeneratedTuples {
		t.Errorf("reference generated %d tuples, rewrite %d",
			ref.Stats.GeneratedTuples, seq.Stats.GeneratedTuples)
	}
	if ref.Stats.PlacedTuples != seq.Stats.PlacedTuples {
		t.Errorf("reference placed %d tuples, rewrite %d",
			ref.Stats.PlacedTuples, seq.Stats.PlacedTuples)
	}
	if ref.Stats.HashComputations != seq.Stats.HashComputations ||
		ref.Stats.HashLookups != seq.Stats.HashLookups {
		t.Errorf("hasher stats diverge: reference %d/%d, rewrite %d/%d",
			ref.Stats.HashComputations, ref.Stats.HashLookups,
			seq.Stats.HashComputations, seq.Stats.HashLookups)
	}
	lists := referenceLists(t, d, rules, n, hypart.Options{Share: true}, seq)
	assign := make([]int, len(seq.Blocks))
	for b, blk := range seq.Blocks {
		assign[b] = blk.Worker
		if blk.Size != len(lists[b]) {
			t.Fatalf("block %d holds %d tuples, the reference's %d", b, blk.Size, len(lists[b]))
		}
	}
	if !slices.Equal(seq.Hosts(d, assign, n), listHosts(lists, assign, d.Size(), n)) {
		t.Fatal("hosts read off the cells differ from the reference lists'")
	}
	maxF, minF := 0, d.Size()
	for _, f := range mapFragments(lists, assign, n) {
		maxF, minF = max(maxF, len(f)), min(minF, len(f))
	}
	if seq.Stats.MaxFragment != maxF || seq.Stats.MinFragment != minF {
		t.Errorf("fragment bounds %d/%d, the reference lists give %d/%d",
			seq.Stats.MaxFragment, seq.Stats.MinFragment, maxF, minF)
	}
}

// TestPartitionParallelEquivalence is the property test of the tentpole:
// for random rule sets and datasets, the sharded Partition is byte-
// identical to the sequential path at every shard count, and the seed-era
// reference partitioner agrees on all assignment-independent invariants.
func TestPartitionParallelEquivalence(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		d, rules := randomPartitionInstance(t, seed)
		for _, n := range []int{2, 4, 8} {
			checkPartitionEquivalent(t, d, rules, n)
		}
	}
}

// TestPartitionParallelEquivalenceTPCH runs the same equivalence check on
// the realistic TPC-H-derived workload the benchmarks use.
func TestPartitionParallelEquivalenceTPCH(t *testing.T) {
	g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.03, Dup: 0.3, Seed: 5})
	rules, err := g.Rules()
	if err != nil {
		t.Fatal(err)
	}
	checkPartitionEquivalent(t, g.D, rules, 8)
}

// TestReplicationCapOne: with the per-tuple copy factor capped at 1 no
// dimension may broadcast, so every (rule, variable, tuple) emits exactly
// one generated tuple and the partition is still a correct cover (checked
// against brute-force valuations via Lemma 6).
func TestReplicationCapOne(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		d, rules := randomPartitionInstance(t, seed)
		res, err := hypart.Partition(d, rules, 4, hypart.Options{Share: true, ReplicationCap: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		for _, r := range rules {
			for _, v := range r.Vars {
				want += int64(len(d.Relations[v.RelIdx].Tuples))
			}
		}
		if res.Stats.GeneratedTuples != want {
			t.Errorf("seed %d: cap=1 generated %d tuples, want exactly %d (no broadcast)",
				seed, res.Stats.GeneratedTuples, want)
		}
		checkLocality(t, d, rules, res, 4)
	}
}

// TestReplicationCapBelowBroadcastDims pins the cap below what the
// broadcast dimensions of a multi-atom rule would need: the allocator must
// degrade extents (fewer, coarser blocks) rather than violate the cap or
// lose valuations.
func TestReplicationCapBelowBroadcastDims(t *testing.T) {
	d, rules := randomPartitionInstance(t, 3)
	uncapped, err := hypart.Partition(d, rules, 8, hypart.Options{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := hypart.Partition(d, rules, 8, hypart.Options{Share: true, ReplicationCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Stats.GeneratedTuples > uncapped.Stats.GeneratedTuples {
		t.Errorf("cap=2 generated more tuples (%d) than uncapped (%d)",
			capped.Stats.GeneratedTuples, uncapped.Stats.GeneratedTuples)
	}
	if d.Size() > 0 {
		factor := float64(capped.Stats.GeneratedTuples) / float64(d.Size())
		// Per (rule, variable) each tuple may generate at most cap copies.
		bound := 0.0
		for _, r := range rules {
			bound += 2 * float64(len(r.Vars))
		}
		if factor > bound {
			t.Errorf("copy factor %.1f exceeds cap-implied bound %.1f", factor, bound)
		}
	}
	checkLocality(t, d, rules, capped, 8)
}

// checkLocality asserts Lemma 6 for a partition result, in its Hypercube
// form: every static-satisfying valuation of every rule (bruteValuations)
// lies in one cell of the rule's cube — its variables' cells bits agree
// where their masks meet — in a non-empty block, exactly one of the n
// workers owns that cell, and Hosts says that worker hosts every tuple of
// the valuation.
func checkLocality(t *testing.T, d *relation.Dataset, rules []*rule.Rule, res *hypart.Result, n int) {
	t.Helper()
	assign := make([]int, len(res.Blocks))
	for b := range res.Blocks {
		assign[b] = res.Blocks[b].Worker
	}
	hosts := res.Hosts(d, assign, n)
	words := (n + 63) / 64
	for ri, r := range rules {
		cb := &res.Cubes[ri]
		owned := make([][]uint64, n)
		for w := range owned {
			owned[w] = cb.Owned(assign, w)
		}
		bruteValuations(d, r, func(binding []*relation.Tuple) {
			var cell int32
			for v, tu := range binding {
				if vc := &cb.Vars[v]; vc.Cells != nil {
					cell |= vc.Cells[tu.Row]
				}
			}
			for v, tu := range binding {
				if vc := &cb.Vars[v]; vc.Cells != nil && cell&vc.Mask != vc.Cells[tu.Row] {
					t.Fatalf("rule %s: variable %d's cell bits %b disagree with the valuation's cell %b", r.Name, v, vc.Cells[tu.Row], cell)
				}
			}
			b := cb.Blocks[cell]
			if b < 0 {
				t.Fatalf("rule %s: a valuation lies in cell %d, whose block is empty", r.Name, cell)
			}
			owners, owner := 0, 0
			for w := range owned {
				if owned[w][cell>>6]&(1<<(cell&63)) != 0 {
					owners, owner = owners+1, w
				}
			}
			if owners != 1 {
				t.Fatalf("rule %s: %d workers own cell %d", r.Name, owners, cell)
			}
			for _, tu := range binding {
				if hosts[int(tu.GID)*words+owner>>6]&(1<<(owner&63)) == 0 {
					t.Fatalf("rule %s: worker %d owns cell %d but does not host tuple %d of a valuation in it", r.Name, owner, cell, tu.GID)
				}
			}
		})
	}
}
