package hypart_test

import (
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"dcer/internal/datagen"
	"dcer/internal/hypart"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

// referenceLists runs PartitionReference on the instance res partitions
// and returns, aligned with res.Blocks, the tuples the reference placed in
// each block. It fails the test unless the reference's blocks are exactly
// res's, key for key.
func referenceLists(t *testing.T, d *relation.Dataset, rules []*rule.Rule, n int, opts hypart.Options, res *hypart.Result) [][]relation.TID {
	t.Helper()
	_, byKey, err := hypart.PartitionReference(d, rules, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(byKey) != len(res.Blocks) {
		t.Fatalf("reference found %d blocks, Partition %d", len(byKey), len(res.Blocks))
	}
	lists := make([][]relation.TID, len(res.Blocks))
	for b, blk := range res.Blocks {
		l, ok := byKey[hypart.RefKey(blk.Canon)]
		if !ok {
			t.Fatalf("block %d (%s) is not among the reference's", b, hypart.RefKey(blk.Canon))
		}
		lists[b] = l
	}
	return lists
}

// listHosts is the host bitsets member lists give: per tuple of a dataset
// of size tuples, the workers assign puts a block listing it on.
func listHosts(lists [][]relation.TID, assign []int, size, n int) []uint64 {
	words := (n + 63) / 64
	hosts := make([]uint64, size*words)
	for b, l := range lists {
		for _, gid := range l {
			hosts[int(gid)*words+assign[b]>>6] |= 1 << (uint(assign[b]) & 63)
		}
	}
	return hosts
}

// hostedBy lists, per worker, the tuples whose host bits name it,
// ascending.
func hostedBy(hosts []uint64, n int) [][]relation.TID {
	words := (n + 63) / 64
	out := make([][]relation.TID, n)
	for i, h := range hosts {
		for ; h != 0; h &= h - 1 {
			w := i%words<<6 + bits.TrailingZeros64(h)
			out[w] = append(out[w], relation.TID(i/words))
		}
	}
	return out
}

// mapFragments lists, per worker, the union of the lists of the blocks
// assign puts on it: map set union, then a sort of each map dump.
func mapFragments(lists [][]relation.TID, assign []int, n int) [][]relation.TID {
	sets := make([]map[relation.TID]struct{}, n)
	for w := range sets {
		sets[w] = make(map[relation.TID]struct{})
	}
	for b, l := range lists {
		for _, gid := range l {
			sets[assign[b]][gid] = struct{}{}
		}
	}
	frags := make([][]relation.TID, n)
	for w, set := range sets {
		for gid := range set {
			frags[w] = append(frags[w], gid)
		}
		sort.Slice(frags[w], func(a, b int) bool { return frags[w][a] < frags[w][b] })
	}
	return frags
}

// TestWorkerSizesMatchesMapOracle: on random instances and random
// block→worker assignments (a recovery passes one Partition never made),
// the tuples Hosts gives each worker — their count is the worker's size,
// which Stats' fragment bounds read — are the map-based union of the
// reference's lists of its blocks, including for workers that own nothing.
func TestWorkerSizesMatchesMapOracle(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, rules := randomPartitionInstance(t, seed)
		n := 2 + rng.Intn(5)
		opts := hypart.Options{Share: seed%2 == 0}
		res, err := hypart.Partition(d, rules, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		lists := referenceLists(t, d, rules, n, opts, res)
		assign := make([]int, len(res.Blocks))
		for b := range assign {
			assign[b] = rng.Intn(n)
		}
		got, want := hostedBy(res.Hosts(d, assign, n), n), mapFragments(lists, assign, n)
		for w := range want {
			if !slices.Equal(got[w], want[w]) {
				t.Fatalf("seed %d: worker %d hosts %d tuples, the map oracle lists %d", seed, w, len(got[w]), len(want[w]))
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

// TestPartitionAllocs guards the dense hot path: the scan writes cells
// columns, the size pass counts into per-shard arrays over the candidate
// blocks, and the hosts are per-(rule, variable) tables, so the
// allocation count grows with the number of blocks, never with the number
// of tuples.
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
	// Per block: its key and index entry; plus the plan, the per-rule
	// scan and size set-up and the host tables. Measured 1488 for 35
	// blocks.
	bound := float64(48*res.Stats.Blocks + 512)
	if allocs > bound {
		t.Errorf("Partition allocated %.0f times for %d blocks over %d tuples, bound %.0f",
			allocs, res.Stats.Blocks, g.D.Size(), bound)
	}
	if float64(g.D.Size()) < 2*bound {
		t.Fatalf("fixture too small (%d tuples) for the bound %.0f to separate blocks from tuples", g.D.Size(), bound)
	}
}
