package hypart_test

import (
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"dcer/internal/datagen"
	"dcer/internal/hypart"
	"dcer/internal/relation"
)

// mapBuildFragments lists, per worker, the union of the blocks assign
// puts on it and, per (worker, rule), the union of those of its blocks the
// rule generated: set union, then a sort of each map dump. It is the
// oracle of WorkerSizes, and the partition digest hashes what it lists.
func mapBuildFragments(blocks []hypart.Block, assign []int, n, numRules int) ([][]relation.TID, [][][]relation.TID) {
	fragSets := make([]map[relation.TID]struct{}, n)
	ruleSets := make([][]map[relation.TID]struct{}, n)
	for i := range fragSets {
		fragSets[i] = make(map[relation.TID]struct{})
		ruleSets[i] = make([]map[relation.TID]struct{}, numRules)
		for ri := range ruleSets[i] {
			ruleSets[i][ri] = make(map[relation.TID]struct{})
		}
	}
	for bi := range blocks {
		w := assign[bi]
		for _, gid := range blocks[bi].GIDs {
			fragSets[w][gid] = struct{}{}
			for _, ri := range blocks[bi].Rules {
				ruleSets[w][ri][gid] = struct{}{}
			}
		}
	}
	sortIDs := func(set map[relation.TID]struct{}) []relation.TID {
		ids := make([]relation.TID, 0, len(set))
		for gid := range set {
			ids = append(ids, gid)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		return ids
	}
	frags := make([][]relation.TID, n)
	ruleFrags := make([][][]relation.TID, n)
	for i := range fragSets {
		frags[i] = sortIDs(fragSets[i])
		ruleFrags[i] = make([][]relation.TID, numRules)
		for ri, rset := range ruleSets[i] {
			ruleFrags[i][ri] = sortIDs(rset)
		}
	}
	return frags, ruleFrags
}

// TestWorkerSizesMatchesMapOracle: on random overlapping blocks and
// random block→worker assignments (the rebalance and recovery callers
// pass arbitrary ones), the bitset WorkerSizes counts what the map-based
// oracle lists — including workers that own nothing.
func TestWorkerSizesMatchesMapOracle(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, numRules, idSpace := 1+rng.Intn(6), 1+rng.Intn(70), 1+rng.Intn(500)
		blocks := make([]hypart.Block, rng.Intn(20))
		assign := make([]int, len(blocks))
		for bi := range blocks {
			for id := 0; id < idSpace; id++ {
				if rng.Intn(4) == 0 {
					blocks[bi].GIDs = append(blocks[bi].GIDs, relation.TID(id))
				}
			}
			for ri := 0; ri < numRules; ri++ {
				if rng.Intn(8) == 0 {
					blocks[bi].Rules = append(blocks[bi].Rules, ri)
				}
			}
			assign[bi] = rng.Intn(n)
		}
		sizes := hypart.WorkerSizes(blocks, assign, n)
		frags, _ := mapBuildFragments(blocks, assign, n, numRules)
		for w := range frags {
			if sizes[w] != len(frags[w]) {
				t.Fatalf("seed %d: worker %d holds %d tuples, the map oracle %d", seed, w, sizes[w], len(frags[w]))
			}
		}
	}
}

// TestPartitionRejectsBlockKeyOverflow: a virtual-block budget (n² for n
// workers) beyond the 20-bit extent field of the packed block keys would
// alias distinct blocks (and silently break Lemma 6 locality); Partition
// must refuse it. 1024 workers need exactly 2²⁰ blocks, one too many.
func TestPartitionRejectsBlockKeyOverflow(t *testing.T) {
	d, rules := randomPartitionInstance(t, 1)
	_, err := hypart.Partition(d, rules, 1024, hypart.Options{Share: true})
	if err == nil || !strings.Contains(err.Error(), "virtual blocks") {
		t.Fatalf("n=1024: got error %v, want a block-key packing error", err)
	}
	if _, err := hypart.Partition(d, rules, 32, hypart.Options{Share: true}); err != nil {
		t.Fatalf("n=32 rejected: %v", err)
	}
}

// raceEnabled is set by race_test.go when the race detector is built in.
var raceEnabled bool

// TestPartitionAllocs guards the dense hot path: the scan appends to
// per-block lists and the finalisation goes through one bitset, so the
// allocation count grows with the number of blocks (list doublings, one
// GID slice per block and scope), never with the number of tuples.
func TestPartitionAllocs(t *testing.T) {
	if raceEnabled {
		// The race runtime allocates per goroutine start and per sync
		// operation of the scan shards; at 35 blocks that is enough to
		// cross the bound on some runs (2195-2205 against 2192).
		t.Skip("allocation counts include the race detector's own")
	}
	g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.5, Dup: 0.3, Seed: 1})
	rules, err := g.Rules()
	if err != nil {
		t.Fatal(err)
	}
	var res *hypart.Result
	allocs := testing.AllocsPerRun(3, func() {
		// Two scan shards; AllocsPerRun itself runs f at GOMAXPROCS 1.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		res, err = hypart.Partition(g.D, rules, 4, hypart.Options{Share: true})
		if err != nil {
			t.Fatal(err)
		}
	})
	// Per block: its key and index entry, one list per shard growing by
	// doubling (≤ log₂|D| reallocating appends each), the GID slice and
	// rule list; plus the plan and per-rule scan set-up. Measured 1705 for
	// 35 blocks; the map-based partitioner this replaced needed 4213.
	bound := float64(48*res.Stats.Blocks + 512)
	if allocs > bound {
		t.Errorf("Partition allocated %.0f times for %d blocks over %d tuples, bound %.0f",
			allocs, res.Stats.Blocks, g.D.Size(), bound)
	}
	if float64(g.D.Size()) < 2*bound {
		t.Fatalf("fixture too small (%d tuples) for the bound %.0f to separate blocks from tuples", g.D.Size(), bound)
	}
}
