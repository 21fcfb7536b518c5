package hypart

import (
	"sort"
	"strconv"
	"strings"

	"dcer/internal/mqo"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

// PartitionReference is the seed-era single-threaded partitioner, kept
// verbatim (string block keys, per-emit key concatenation, map-of-maps
// accumulation) as an independent oracle for the invariants the rewritten
// partitioner must preserve: the same non-empty block count,
// the same multiset of block sizes, and the same generated/placed tuple
// totals. The LPT tie-break differs (string vs numeric key order), so
// fragment contents are compared against Partition's own sequential path
// instead (see TestPartitionParallelEquivalence).
func PartitionReference(d *relation.Dataset, rules []*rule.Rule, n int, opts Options) (*Result, error) {
	if n < 1 {
		return nil, errWorkers(n)
	}
	plan, err := mqo.Build(rules, opts.Share)
	if err != nil {
		return nil, err
	}
	res := &Result{Plan: plan}
	res.Stats.HashFns, res.Stats.HashFnsBaseline = plan.Savings()
	if n == 1 {
		return partitionSingle(d, rules, res, nil), nil
	}

	vb := opts.VirtualBlocks
	if vb == 0 {
		vb = n * n
	}
	hasher := mqo.NewHasher()
	blocks := make(map[string]map[relation.TID]bool)
	blockRules := make(map[string]map[int]bool)

	repCap := effectiveRepCap(opts.ReplicationCap, n)
	relSizes := make([]int, len(d.Relations))
	for i, rel := range d.Relations {
		relSizes[i] = len(rel.Tuples)
	}
	for ri, ra := range plan.Assignments {
		dims := buildDims(ra, vb, repCap, relSizes)
		ruleKeys := make(map[string]bool)
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
					attr, _ := dims[di].dv.AttrOf(vi)
					coord[di] = int(hasher.Hash(dims[di].fn, t.Val(attr))) % dims[di].size
				}
				refEmitBlocks(dims, coord, bcast, 0, t.GID, blocks, ruleKeys, &res.Stats)
			}
		}
		for key := range ruleKeys {
			rs, ok := blockRules[key]
			if !ok {
				rs = make(map[int]bool)
				blockRules[key] = rs
			}
			rs[ri] = true
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
	ruleSets := make([][]map[relation.TID]bool, n)
	for i := range fragSets {
		fragSets[i] = make(map[relation.TID]bool)
		ruleSets[i] = make([]map[relation.TID]bool, len(rules))
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
		for ri := range blockRules[bi.key] {
			set := ruleSets[w][ri]
			if set == nil {
				set = make(map[relation.TID]bool)
				ruleSets[w][ri] = set
			}
			for gid := range blocks[bi.key] {
				set[gid] = true
			}
		}
	}
	res.Fragments = make([][]relation.TID, n)
	res.RuleFragments = make([][][]relation.TID, n)
	res.Stats.MinFragment = int(^uint(0) >> 1)
	sortIDs := func(set map[relation.TID]bool) []relation.TID {
		ids := make([]relation.TID, 0, len(set))
		for gid := range set {
			ids = append(ids, gid)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		return ids
	}
	for i, set := range fragSets {
		ids := sortIDs(set)
		res.Fragments[i] = ids
		res.RuleFragments[i] = make([][]relation.TID, len(rules))
		for ri, rset := range ruleSets[i] {
			res.RuleFragments[i][ri] = sortIDs(rset)
		}
		if len(ids) > res.Stats.MaxFragment {
			res.Stats.MaxFragment = len(ids)
		}
		if len(ids) < res.Stats.MinFragment {
			res.Stats.MinFragment = len(ids)
		}
	}
	return res, nil
}

// refEmitBlocks is the seed-era emitBlocks: broadcast enumeration into the
// string-keyed block maps.
func refEmitBlocks(dims []dim, coord []int, bcast []int, bi int, gid relation.TID,
	blocks map[string]map[relation.TID]bool, ruleKeys map[string]bool, stats *Stats) {
	if bi == len(bcast) {
		stats.GeneratedTuples++
		key := refBlockKey(dims, coord)
		ruleKeys[key] = true
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
		refEmitBlocks(dims, coord, bcast, bi+1, gid, blocks, ruleKeys, stats)
	}
	coord[di] = -1
}

func refBlockKey(dims []dim, coord []int) string {
	parts := make([]string, len(dims))
	for i := range dims {
		parts[i] = strconv.Itoa(dims[i].fn) + "/" + strconv.Itoa(dims[i].size) + ":" + strconv.Itoa(coord[i])
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}
