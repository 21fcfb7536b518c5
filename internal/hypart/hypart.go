// Package hypart implements HyPart (Section IV): data partitioning for
// deep and collective ER in place of blocking. It extends the Hypercube
// algorithm to a set of MRLs using the MQO hash-function assignment, lays
// tuples out over virtual blocks (n² blocks for n workers), and assigns
// blocks to workers with an LPT minimum-makespan heuristic to balance the
// load.
//
// The partition has the locality property of Lemma 6: every valuation of
// every rule is fully contained in at least one fragment, so checking
// D ⊨ Σ (and chasing) can be done locally, with only deduced matches and
// validated ML predictions exchanged between workers.
//
// Partition itself is parallel and runs on the dense id spaces of the
// storage layer: every rule's coordinate cells are resolved to block
// indexes up front, the (rule, variable) tuple scans are sharded over
// GOMAXPROCS goroutines that hash packed columns through a Sym-indexed
// memo and append GIDs to private per-block lists, and the lists are
// merged, deduplicated and sorted through a |D|-bit relation.TIDSet in
// canonical block order — the output is byte-identical for every shard
// count (the snapshot-enumerate-merge discipline of internal/chase
// applied to partitioning).
package hypart

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"dcer/internal/mqo"
	"dcer/internal/relation"
	"dcer/internal/rule"
	"dcer/internal/telemetry"
)

// Options configures the partitioner.
type Options struct {
	// Share enables MQO hash-function sharing (HyPart proper); false is
	// the DMatch_noMQO configuration.
	Share bool
	// ReplicationCap bounds the per-tuple copy factor of any rule: a
	// dimension is only enlarged while every tuple variable's broadcast
	// product stays within the cap. This is the pragmatic stand-in for
	// the Lagrangean extent allocation of Afrati-Ullman — wide collective
	// rules keep locality (Lemma 6) but are spread over fewer blocks.
	// Replication is inherent to Hypercube multi-way joins (the
	// communication-optimal factor for a ρ-wide join is n^(1-1/ρ)), so
	// the default grows with the worker count: max(4, n/2).
	ReplicationCap int
	// Metrics, when non-nil, receives the partition shape as the
	// dcer_hypart_fragment_size histogram (tuples per worker fragment, one
	// observation per worker). Nil disables with no overhead.
	Metrics *telemetry.Registry
	// Trace parents the partition's causal spans: a hypart.Partition
	// root, one hypart.shard.scan span per scan goroutine (each on its
	// own shard lane), and the hypart.merge/hypart.assign spans of the
	// sequential tail. The zero value disables capture; when Metrics is
	// set and Trace is not, a root is derived from the registry's tracer.
	Trace telemetry.TraceContext
}

// Stats reports the partitioning work, for the Exp-2 experiments.
type Stats struct {
	HashComputations int64 // distinct hash-function evaluations
	HashLookups      int64 // total evaluations incl. memoized reuse
	GeneratedTuples  int64 // |H(Σ,D)|: tuple copies generated before dedup
	PlacedTuples     int64 // tuple copies after per-block dedup
	Blocks           int   // non-empty virtual blocks
	HashFns          int   // hash functions used (after sharing)
	HashFnsBaseline  int   // one-per-distinct-variable baseline
	MaxFragment      int
	MinFragment      int
	Shards           int // goroutines the partition pass actually used
}

// Block is one virtual block of the computed partition: its canonical
// identity (the sorted packed (fn, extent, bucket) triples), its member
// tuples, the rules whose hypercubes generated it, and the worker the LPT
// assignment placed it on. Blocks are retained in the Result so the
// scheduler can re-assign them later (skew-adaptive rebalancing in
// dmatch) without re-partitioning.
type Block struct {
	Canon  []uint64       // sorted packed dims; the deterministic identity
	GIDs   []relation.TID // sorted member tuples
	Rules  []int          // sorted indices of the rules generating the block
	Worker int            // LPT assignment
}

// Result is the computed partition.
type Result struct {
	// Fragments[i] lists the GIDs assigned to worker i (deduplicated):
	// the union of the virtual blocks placed on the worker.
	Fragments [][]relation.TID
	// RuleFragments[i][r] lists the GIDs of worker i's blocks that were
	// generated for rule r. Hypercube semantics evaluate each rule within
	// its own blocks; scoping the chase per rule avoids every rule
	// re-scanning tuples that other rules' blocks brought to the worker.
	RuleFragments [][][]relation.TID
	// Blocks lists the non-empty virtual blocks in canonical order (nil
	// on the n=1 fast path, which has no blocks to balance).
	Blocks []Block
	Plan   *mqo.Plan
	Stats  Stats
}

// dim is one hypercube dimension of a rule: a distinct-variable class with
// its hash function and extent.
type dim struct {
	dv   *rule.DistinctVar
	fn   int
	size int
}

func errWorkers(n int) error {
	return fmt.Errorf("hypart: need at least one worker, got %d", n)
}

// effectiveRepCap resolves the replication-cap default: max(4, n/2).
func effectiveRepCap(cap, n int) int {
	if cap > 0 {
		return cap
	}
	out := 4
	if n/2 > out {
		out = n / 2
	}
	return out
}

// partitionSingle is the n=1 fast path: one fragment holding everything.
func partitionSingle(d *relation.Dataset, rules []*rule.Rule, res *Result, metrics *telemetry.Registry) *Result {
	ids := make([]relation.TID, 0, d.Size())
	for _, t := range d.Tuples() {
		ids = append(ids, t.GID)
	}
	res.Fragments = [][]relation.TID{ids}
	perRule := make([][]relation.TID, len(rules))
	for r := range perRule {
		perRule[r] = ids
	}
	res.RuleFragments = [][][]relation.TID{perRule}
	res.Stats.MaxFragment, res.Stats.MinFragment = len(ids), len(ids)
	metrics.Histogram("dcer_hypart_fragment_size").Observe(uint64(len(ids)))
	return res
}

// packDim packs one (fn, extent, bucket) dimension into a uint64 so block
// identities are short integer vectors instead of concatenated strings.
// Numeric order on the packed value equals (fn, extent, bucket)
// lexicographic order, so sorting packed dims canonicalizes a key exactly
// like the seed partitioner's sorted string parts. Partition rejects any
// configuration whose fields could outgrow the packing widths (see
// maxExtent, maxHashFns), so distinct dimensions never alias.
func packDim(fn, size, coord int) uint64 {
	return uint64(fn)<<40 | uint64(size)<<20 | uint64(coord)
}

// Packing bounds of packDim: extents (and the buckets below them) own 20
// bits each, the hash-function id the 24 above. An extent can grow to the
// whole virtual-block budget, so the budget itself is what gets checked —
// and one of exactly 2²⁰ would already carry into the function field.
const (
	maxExtent  = 1<<20 - 1
	maxHashFns = 1 << 24
)

// canonLess orders canonical keys: shorter first, then elementwise.
func canonLess(a, b []uint64) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// cube is one rule's hypercube resolved to block indexes before any tuple
// is scanned: a coordinate vector is a mixed-radix cell index (dimension
// di advances it by stride[di] per bucket), and cells maps each of the
// ≤ n² cells to the virtual block its canonical key names. Block keys
// embed (fn, extent, bucket) per dimension, so rules sharing all hash
// functions and extents resolve to the same blocks — the tuple-copy dedup
// that MQO sharing buys.
type cube struct {
	dims   []dim
	stride []int32
	cells  []int32
}

// blockIndex interns canonical block keys to dense block indexes while
// the cubes are resolved. Most candidate blocks of a sparse cube stay
// empty; Partition keeps the non-empty ones.
type blockIndex struct {
	byKey map[string]int32
	canon [][]uint64
}

func (bx *blockIndex) resolve(dims []dim) *cube {
	c := &cube{dims: dims, stride: make([]int32, len(dims))}
	total := 1
	for i := range dims {
		c.stride[i] = int32(total)
		total *= dims[i].size
	}
	c.cells = make([]int32, total)
	coord := make([]int, len(dims))
	key := make([]uint64, len(dims))
	raw := make([]byte, 8*len(dims))
	for cell := range c.cells {
		for i := range dims {
			key[i] = packDim(dims[i].fn, dims[i].size, coord[i])
		}
		// Insertion sort: keys are tiny (one element per rule dimension).
		for i := 1; i < len(key); i++ {
			for j := i; j > 0 && key[j] < key[j-1]; j-- {
				key[j], key[j-1] = key[j-1], key[j]
			}
		}
		for i, k := range key {
			binary.LittleEndian.PutUint64(raw[8*i:], k)
		}
		b, ok := bx.byKey[string(raw)]
		if !ok {
			b = int32(len(bx.canon))
			bx.byKey[string(raw)] = b
			bx.canon = append(bx.canon, append([]uint64(nil), key...))
		}
		c.cells[cell] = b
		for i := range coord { // next cell: dimension 0 runs fastest
			if coord[i]++; coord[i] < dims[i].size {
				break
			}
			coord[i] = 0
		}
	}
	return c
}

// varScan is the per-(rule, variable) scan preparation shared by every
// shard: the rule's cube, which dimensions hash this variable (and on
// which attribute), and the cell offsets of every combination of the
// broadcast dimensions (a single 0 when nothing is broadcast).
type varScan struct {
	ri     int
	cube   *cube
	rel    *relation.Relation
	hashed []int
	attrs  []int // attribute per hashed dim
	bcast  []int32
}

// unit is one shard work item: a tuple range of one varScan.
type unit struct {
	scan   *varScan
	lo, hi int
}

// unitChunk bounds the tuples per work unit so large relations split
// across shards while the unit list stays short.
const unitChunk = 2048

// shardAcc is one goroutine's private accumulator: per block, the members
// it emitted (duplicates included — the finalisation dedups) and the
// rules that emitted them.
type shardAcc struct {
	gids      [][]relation.TID
	rules     []uint64 // ruleWords-wide bitset per block
	generated int64
	hash      [unitChunk]uint32 // per-unit scratch
	cell      [unitChunk]int32
	row       [unitChunk]int32
}

// scan hashes one unit column by column into cell indexes and appends
// every tuple to the blocks of its cell's broadcast images. The unit's
// tuples are a range of its relation's scan list (Relation.TIDs), whose
// column rows the dataset's row table gives, so a fragment partitions as
// its root does.
func (sa *shardAcc) scan(u unit, rowOf []int32, hasher *mqo.DenseHasher, ruleWords int) {
	sc := u.scan
	tuples := sc.rel.TIDs()[u.lo:u.hi]
	hash, cell, rows := sa.hash[:len(tuples)], sa.cell[:len(tuples)], sa.row[:len(tuples)]
	for i, t := range tuples {
		cell[i], rows[i] = 0, rowOf[t]
	}
	for hi, di := range sc.hashed {
		dm, attr := &sc.cube.dims[di], sc.attrs[hi]
		hasher.HashColumn(dm.fn, sc.rel.Schema.Attrs[attr].Type, sc.rel.Col(attr), rows, hash)
		if size, stride := uint32(dm.size), sc.cube.stride[di]; size > 1 {
			for i, h := range hash {
				cell[i] += int32(h%size) * stride
			}
		}
	}
	cells := sc.cube.cells
	rword, rbit := sc.ri>>6, uint64(1)<<(uint(sc.ri)&63)
	for i, t := range tuples {
		for _, off := range sc.bcast {
			b := int(cells[cell[i]+off])
			sa.gids[b] = append(sa.gids[b], t)
			sa.rules[b*ruleWords+rword] |= rbit
		}
	}
	sa.generated += int64(len(tuples) * len(sc.bcast))
}

// Partition splits dataset d into n fragments for the rule set Σ.
func Partition(d *relation.Dataset, rules []*rule.Rule, n int, opts Options) (*Result, error) {
	if n < 1 {
		return nil, errWorkers(n)
	}
	tc := opts.Trace
	if !tc.Enabled() && opts.Metrics != nil {
		tc = opts.Metrics.Tracer().NewTrace(telemetry.PIDHyPart, 0)
	}
	root := tc.Start("hypart.Partition", telemetry.L("workers", strconv.Itoa(n)))
	defer root.End()
	ptc := root.Context()

	plan, err := mqo.Build(rules, opts.Share)
	if err != nil {
		return nil, err
	}
	res := &Result{Plan: plan}
	res.Stats.HashFns, res.Stats.HashFnsBaseline = plan.Savings()
	if n == 1 {
		res.Stats.Shards = 1
		return partitionSingle(d, rules, res, opts.Metrics), nil
	}

	if n > maxExtent/n { // n² > maxExtent, without overflowing
		return nil, fmt.Errorf("hypart: %d workers need n² virtual blocks, beyond the block-key packing bound %d", n, maxExtent)
	}
	vb := n * n
	if plan.NumHashFns > maxHashFns {
		return nil, fmt.Errorf("hypart: plan uses %d hash functions, block keys hold at most %d", plan.NumHashFns, maxHashFns)
	}
	repCap := effectiveRepCap(opts.ReplicationCap, n)
	relSizes := make([]int, len(d.Relations))
	for i, rel := range d.Relations {
		relSizes[i] = len(rel.TIDs())
	}

	// Resolve every rule's cube to block indexes, prepare the per-(rule,
	// variable) scans and chunk them into units.
	bx := &blockIndex{byKey: make(map[string]int32)}
	var units []unit
	for ri, ra := range plan.Assignments {
		cb := bx.resolve(buildDims(ra, vb, repCap, relSizes))
		for vi, v := range ra.Rule.Vars {
			sc := &varScan{ri: ri, cube: cb, rel: d.Relations[v.RelIdx], bcast: []int32{0}}
			for di := range cb.dims {
				if attr, ok := cb.dims[di].dv.AttrOf(vi); ok {
					sc.hashed = append(sc.hashed, di)
					sc.attrs = append(sc.attrs, attr)
				} else if size := cb.dims[di].size; size > 1 {
					images := make([]int32, 0, len(sc.bcast)*size)
					for b := 0; b < size; b++ {
						for _, off := range sc.bcast {
							images = append(images, off+int32(b)*cb.stride[di])
						}
					}
					sc.bcast = images
				}
			}
			for lo := 0; lo < len(sc.rel.TIDs()); lo += unitChunk {
				units = append(units, unit{sc, lo, min(lo+unitChunk, len(sc.rel.TIDs()))})
			}
		}
	}

	shards := max(min(runtime.GOMAXPROCS(0), len(units)), 1)
	res.Stats.Shards = shards

	hasher := mqo.NewDenseHasher(plan.NumHashFns, d.Syms())
	ruleWords := (len(rules) + 63) / 64
	accs := make([]*shardAcc, shards)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for s := range accs {
		accs[s] = &shardAcc{
			gids:  make([][]relation.TID, len(bx.canon)),
			rules: make([]uint64, len(bx.canon)*ruleWords),
		}
		wg.Add(1)
		go func(s int, sa *shardAcc) {
			defer wg.Done()
			// Each scan goroutine renders on its own shard lane.
			sp := ptc.Lane(telemetry.PIDHyPart, int32(s+1)).Start("hypart.shard.scan")
			for i := int(cursor.Add(1)) - 1; i < len(units); i = int(cursor.Add(1)) - 1 {
				sa.scan(units[i], d.Rows(), hasher, ruleWords)
			}
			sp.End()
		}(s, accs[s])
	}
	wg.Wait()
	res.Stats.HashComputations, res.Stats.HashLookups = hasher.Counts()

	// Merge: the non-empty blocks in canonical key order — so the result
	// is independent of the shard count and scheduling — each with the
	// union of its shards' members, deduplicated and sorted through one
	// relation.TIDSet.
	msp := ptc.Start("hypart.merge", telemetry.L("shards", strconv.Itoa(shards)))
	var order []int
	for b := range bx.canon {
		for _, sa := range accs {
			if len(sa.gids[b]) > 0 {
				order = append(order, b)
				break
			}
		}
	}
	sort.Slice(order, func(i, j int) bool { return canonLess(bx.canon[order[i]], bx.canon[order[j]]) })
	var set relation.TIDSet
	res.Blocks = make([]Block, len(order))
	for bi, b := range order {
		var ris []int
		for w := 0; w < ruleWords; w++ {
			var word uint64
			for _, sa := range accs {
				word |= sa.rules[b*ruleWords+w]
			}
			for ; word != 0; word &= word - 1 {
				ris = append(ris, w*64+bits.TrailingZeros64(word))
			}
		}
		for _, sa := range accs {
			set.Add(sa.gids[b])
		}
		res.Blocks[bi] = Block{Canon: bx.canon[b], GIDs: set.Drain(), Rules: ris}
		res.Stats.PlacedTuples += int64(len(res.Blocks[bi].GIDs))
	}
	for _, sa := range accs {
		res.Stats.GeneratedTuples += sa.generated
	}
	res.Stats.Blocks = len(res.Blocks)
	msp.End()

	asp := ptc.Start("hypart.assign")
	defer asp.End()
	// LPT minimum-makespan assignment of virtual blocks to workers, by
	// block size (the static cost model; dmatch re-runs this over
	// observed costs when a run shows skew).
	costs := make([]float64, len(res.Blocks))
	for i := range res.Blocks {
		costs[i] = float64(len(res.Blocks[i].GIDs))
	}
	assign := AssignLPT(costs, n)
	for i := range res.Blocks {
		res.Blocks[i].Worker = assign[i]
	}
	res.Fragments, res.RuleFragments = BuildFragments(res.Blocks, assign, n, len(rules))
	res.Stats.MinFragment = int(^uint(0) >> 1)
	for i, ids := range res.Fragments {
		if len(ids) > res.Stats.MaxFragment {
			res.Stats.MaxFragment = len(ids)
		}
		if len(ids) < res.Stats.MinFragment {
			res.Stats.MinFragment = len(ids)
		}
		opts.Metrics.Histogram("dcer_hypart_fragment_size").Observe(uint64(len(res.Fragments[i])))
	}
	return res, nil
}

// AssignLPT assigns blocks to n workers with the LPT minimum-makespan
// heuristic over the given per-block costs: blocks in descending cost
// order (ties by block index, which is canonical key order) go to the
// least-loaded worker (ties to the lowest worker). Partition calls it
// with block sizes; dmatch's balance applies the same rule over observed
// per-block costs and live workers to migrate blocks between supersteps.
func AssignLPT(costs []float64, n int) []int {
	order := make([]int, len(costs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return costs[order[i]] > costs[order[j]] })
	load := make([]float64, n)
	assign := make([]int, len(costs))
	for _, b := range order {
		w := 0
		for i := 1; i < n; i++ {
			if load[i] < load[w] {
				w = i
			}
		}
		assign[b] = w
		load[w] += costs[b]
	}
	return assign
}

// BuildFragments materializes the per-worker fragments and per-rule rule
// scopes implied by an assignment of blocks to workers: Fragments[i] is
// the sorted union of worker i's blocks, RuleFragments[i][r] the sorted
// union of its blocks generated for rule r. Unions go through one scratch
// relation.TIDSet, so the cost is linear in the block sizes.
func BuildFragments(blocks []Block, assign []int, n, numRules int) ([][]relation.TID, [][][]relation.TID) {
	own := make([][]int, n)              // blocks per worker
	ownRule := make([][]int, n*numRules) // blocks per (worker, rule)
	for bi := range blocks {
		w := assign[bi]
		own[w] = append(own[w], bi)
		for _, ri := range blocks[bi].Rules {
			ownRule[w*numRules+ri] = append(ownRule[w*numRules+ri], bi)
		}
	}
	var set relation.TIDSet
	union := func(bis []int) []relation.TID {
		for _, bi := range bis {
			set.Add(blocks[bi].GIDs)
		}
		return set.Drain()
	}
	frags := make([][]relation.TID, n)
	ruleFrags := make([][][]relation.TID, n)
	for w := range frags {
		frags[w] = union(own[w])
		ruleFrags[w] = make([][]relation.TID, numRules)
		for ri := range ruleFrags[w] {
			ruleFrags[w][ri] = union(ownRule[w*numRules+ri])
		}
	}
	return frags, ruleFrags
}

// buildDims allocates hypercube extents to a rule's dimensions by greedy
// doubling, the pragmatic stand-in for the Lagrangean allocation of
// Afrati-Ullman: at each step it doubles the dimension whose member
// variables contribute the most tuples to each block (so the doubling
// shrinks the expected block the most), refusing any doubling that would
// push some variable's broadcast product beyond repCap or exceed the block
// budget vb. Constant-pinned dimensions carry one value and keep extent 1.
func buildDims(ra *mqo.RuleAssignment, vb, repCap int, relSizes []int) []dim {
	dims := make([]dim, len(ra.DVs))
	for _, di := range ra.DimOrder {
		dims[di] = dim{dv: ra.DVs[di], fn: ra.HashFn[di], size: 1}
	}
	nvars := len(ra.Rule.Vars)
	// replication(v) = product of extents of dimensions without a member
	// on v — the number of copies each tuple bound to v generates.
	replication := func(v int) int {
		r := 1
		for di := range dims {
			if _, ok := dims[di].dv.AttrOf(v); !ok {
				r *= dims[di].size
			}
		}
		return r
	}
	// contribution(v) = expected tuples variable v places in one block.
	contribution := func(v int) float64 {
		c := float64(relSizes[ra.Rule.Vars[v].RelIdx])
		for di := range dims {
			if _, ok := dims[di].dv.AttrOf(v); ok {
				c /= float64(dims[di].size)
			}
		}
		return c
	}
	product := 1
	for product*2 <= vb {
		best, bestGain := -1, 0.0
		for di := range dims {
			if dims[di].dv.Const {
				continue
			}
			// Doubling di halves its member variables' block contribution
			// but doubles the broadcast of every non-member variable;
			// check the cap.
			ok := true
			gain := 0.0
			for v := 0; v < nvars; v++ {
				if _, member := dims[di].dv.AttrOf(v); member {
					gain += contribution(v) / 2
				} else if replication(v)*2 > repCap {
					ok = false
					break
				}
			}
			if !ok || gain <= 0 {
				continue
			}
			if best < 0 || gain > bestGain {
				best, bestGain = di, gain
			}
		}
		if best < 0 {
			break
		}
		dims[best].size *= 2
		product *= 2
	}
	return dims
}
