package hypart

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"dcer/internal/mqo"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

// PartitionReference is the seed-era single-threaded partitioner, kept
// verbatim (string block keys, per-emit key concatenation, map-of-maps
// accumulation) as an independent oracle for what the rewritten
// partitioner must preserve: the same blocks, each of the same tuples, and
// the same generated/placed tuple totals. Besides Stats, it returns its
// blocks' member lists, ascending, by string key (RefKey names the key of
// a Partition block). The LPT tie-break differs (string vs numeric key
// order), so workers' blocks are compared against Partition's own
// sequential path instead (see TestPartitionParallelEquivalence), and
// its Result holds no blocks or cubes, only Stats.
func PartitionReference(d *relation.Dataset, rules []*rule.Rule, n int, opts Options) (*Result, map[string][]relation.TID, error) {
	if n < 1 {
		return nil, nil, errWorkers(n)
	}
	plan, err := mqo.Build(rules, opts.Share)
	if err != nil {
		return nil, nil, err
	}
	res := &Result{Plan: plan}
	res.Stats.HashFns, res.Stats.HashFnsBaseline = plan.Savings()
	if n == 1 {
		all := make([]relation.TID, d.Size())
		for i := range all {
			all[i] = relation.TID(i)
		}
		return partitionSingle(d, res, nil), map[string][]relation.TID{"": all}, nil
	}

	vb := n * n
	hasher := mqo.NewHasher()
	blocks := make(map[string]map[relation.TID]bool)

	repCap := effectiveRepCap(opts.ReplicationCap, n)
	relSizes := make([]int, len(d.Relations))
	for i, rel := range d.Relations {
		relSizes[i] = len(rel.Tuples)
	}
	for _, ra := range plan.Assignments {
		dims := make([]refDim, len(ra.DVs))
		for di, size := range buildDims(ra, vb, repCap, relSizes) {
			dims[di] = refDim{dv: ra.DVs[di], fn: ra.HashFn[di], size: size}
		}
		for vi, v := range ra.Rule.Vars {
			rel := d.Relations[v.RelIdx]
			var hashed []int
			var bcast []int
			for di := range dims {
				if _, ok := dims[di].dv.AttrOf(vi); ok {
					hashed = append(hashed, di)
				} else if dims[di].size > 1 {
					bcast = append(bcast, di)
				}
			}
			for _, t := range rel.Tuples {
				coord := make([]int, len(dims))
				for di := range coord {
					coord[di] = -1
				}
				for di := range dims {
					if dims[di].size == 1 {
						coord[di] = 0
					}
				}
				for _, di := range hashed {
					if dims[di].size == 1 {
						continue // bucket 0, already set; Partition hashes no extent-1 dimension either
					}
					attr, _ := dims[di].dv.AttrOf(vi)
					coord[di] = int(hasher.Hash(dims[di].fn, t.Val(attr))) % dims[di].size
				}
				refEmitBlocks(dims, coord, bcast, 0, t.GID, blocks, &res.Stats)
			}
		}
	}
	res.Stats.HashComputations = hasher.Computations
	res.Stats.HashLookups = hasher.Lookups
	res.Stats.Blocks = len(blocks)

	// LPT minimum-makespan assignment of virtual blocks to workers.
	type blockInfo struct {
		key  string
		size int
	}
	infos := make([]blockInfo, 0, len(blocks))
	for k, set := range blocks {
		infos = append(infos, blockInfo{k, len(set)})
	}
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].size != infos[j].size {
			return infos[i].size > infos[j].size
		}
		return infos[i].key < infos[j].key
	})
	load := make([]int, n)
	fragSets := make([]map[relation.TID]bool, n)
	for i := range fragSets {
		fragSets[i] = make(map[relation.TID]bool)
	}
	for _, bi := range infos {
		w := 0
		for i := 1; i < n; i++ {
			if load[i] < load[w] {
				w = i
			}
		}
		load[w] += bi.size
		for gid := range blocks[bi.key] {
			fragSets[w][gid] = true
		}
	}
	res.Stats.MinFragment = int(^uint(0) >> 1)
	for _, set := range fragSets {
		res.Stats.MaxFragment = max(res.Stats.MaxFragment, len(set))
		res.Stats.MinFragment = min(res.Stats.MinFragment, len(set))
	}
	lists := make(map[string][]relation.TID, len(blocks))
	for k, set := range blocks {
		for gid := range set {
			lists[k] = append(lists[k], gid)
		}
		slices.Sort(lists[k])
	}
	return res, lists, nil
}

// RefKey is the reference partitioner's string key of the block whose
// canonical identity is canon (Block.Canon): its packed dimensions
// unpacked and joined in the reference's own order.
func RefKey(canon []uint64) string {
	parts := make([]string, len(canon))
	for i, k := range canon {
		parts[i] = fmt.Sprintf("%d/%d:%d", k>>40, k>>20&(1<<20-1), k&(1<<20-1))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// refDim is one dimension of a rule's hypercube: its distinct-variable
// class, hash function and extent.
type refDim struct {
	dv   *rule.DistinctVar
	fn   int
	size int
}

// refEmitBlocks is the seed-era emitBlocks: broadcast enumeration into the
// string-keyed block maps.
func refEmitBlocks(dims []refDim, coord []int, bcast []int, bi int, gid relation.TID,
	blocks map[string]map[relation.TID]bool, stats *Stats) {
	if bi == len(bcast) {
		stats.GeneratedTuples++
		key := refBlockKey(dims, coord)
		set, ok := blocks[key]
		if !ok {
			set = make(map[relation.TID]bool)
			blocks[key] = set
		}
		if !set[gid] {
			set[gid] = true
			stats.PlacedTuples++
		}
		return
	}
	di := bcast[bi]
	for b := 0; b < dims[di].size; b++ {
		coord[di] = b
		refEmitBlocks(dims, coord, bcast, bi+1, gid, blocks, stats)
	}
	coord[di] = -1
}

func refBlockKey(dims []refDim, coord []int) string {
	parts := make([]string, len(dims))
	for i := range dims {
		parts[i] = strconv.Itoa(dims[i].fn) + "/" + strconv.Itoa(dims[i].size) + ":" + strconv.Itoa(coord[i])
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}
