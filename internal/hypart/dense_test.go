package hypart_test

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dcer/internal/datagen"
	"dcer/internal/hypart"
	"dcer/internal/relation"
)

// mapBuildFragments is the map-based BuildFragments the bitset version
// replaced, kept here as its oracle: set union per worker and per
// (worker, rule), then a sort of each map dump.
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

// TestBuildFragmentsMatchesMapOracle: on random overlapping blocks and
// random block→worker assignments (the rebalance and recovery callers
// pass arbitrary ones), the bitset BuildFragments equals the map-based
// oracle — including workers that own nothing and rules no block carries.
func TestBuildFragmentsMatchesMapOracle(t *testing.T) {
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
		frags, ruleFrags := hypart.BuildFragments(blocks, assign, n, numRules)
		wantFrags, wantRuleFrags := mapBuildFragments(blocks, assign, n, numRules)
		if !reflect.DeepEqual(frags, wantFrags) {
			t.Fatalf("seed %d: fragments differ from the map oracle", seed)
		}
		if !reflect.DeepEqual(ruleFrags, wantRuleFrags) {
			t.Fatalf("seed %d: rule fragments differ from the map oracle", seed)
		}
	}
}

// TestPartitionRejectsBlockKeyOverflow: a virtual-block budget beyond the
// 20-bit extent field of the packed block keys would alias distinct
// blocks (and silently break Lemma 6 locality); Partition must refuse it.
func TestPartitionRejectsBlockKeyOverflow(t *testing.T) {
	d, rules := randomPartitionInstance(t, 1)
	_, err := hypart.Partition(d, rules, 4, hypart.Options{Share: true, VirtualBlocks: 1<<20 + 1})
	if err == nil || !strings.Contains(err.Error(), "virtual blocks") {
		t.Fatalf("VirtualBlocks=1<<20+1: got error %v, want a block-key packing error", err)
	}
	if _, err := hypart.Partition(d, rules, 4, hypart.Options{Share: true, VirtualBlocks: 1 << 10}); err != nil {
		t.Fatalf("VirtualBlocks=1<<10 rejected: %v", err)
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
		res, err = hypart.Partition(g.D, rules, 4, hypart.Options{Share: true, Shards: 2})
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
