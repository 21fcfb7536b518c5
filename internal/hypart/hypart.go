// Package hypart implements HyPart (Section IV): data partitioning for
// deep and collective ER in place of blocking. It extends the Hypercube
// algorithm to a set of MRLs using the MQO hash-function assignment, lays
// tuples out over virtual blocks (n² blocks for n workers), and assigns
// blocks to workers with an LPT minimum-makespan heuristic to balance the
// load.
//
// The partition has the locality property of Lemma 6, in its Hypercube
// form: every valuation of a rule lies in exactly one owned cell of the
// rule's cube (Result.Cubes, Cube.Owned), whose owner hosts all its
// tuples. So each valuation is checked (and chased) by exactly one worker,
// with only deduced matches and validated ML predictions exchanged.
//
// A block is a key, a size and a worker: no list of its tuples is kept.
// Which workers host a tuple — own a block that one of the tuple's cells
// lies in — is read off the cubes by Result.Hosts, the one place that
// decides it.
//
// Partition itself is parallel and runs on the dense id spaces of the
// storage layer: every rule's cells are resolved to candidate blocks up
// front, the (rule, variable) scans are sharded over GOMAXPROCS goroutines
// that hash packed columns through a Sym-indexed memo into each
// variable's cells column, and a second sharded pass over each relation's
// row ranges counts the distinct tuples every candidate block receives.
// The non-empty blocks are kept in canonical key order, so the output is
// byte-identical for every shard count.
package hypart

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
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
	// dcer_hypart_fragment_size histogram (tuples per worker: those it
	// hosts, one observation per worker). Nil disables with no overhead.
	Metrics *telemetry.Registry
	// Trace parents the partition's causal spans: a hypart.Partition
	// root, one hypart.shard.scan and one hypart.shard.size span per
	// goroutine of the two passes (each on its own shard lane), and the
	// hypart.assign span of the sequential tail. The zero value disables
	// capture; when Metrics is set and Trace is not, a root is derived
	// from the registry's tracer.
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
	// MaxFragment and MinFragment bound the tuples a worker hosts
	// (Result.Hosts).
	MaxFragment int
	MinFragment int
	Shards      int // goroutines the partition pass actually used
}

// Block is one virtual block of the computed partition: its canonical
// identity (the sorted packed (fn, extent, bucket) triples), the number of
// distinct tuples lying in one of its cells, and the worker the LPT
// assignment put it on. Blocks are the unit a recovery in dmatch moves,
// weighed by Size, without re-partitioning.
type Block struct {
	Canon  []uint64 // sorted packed dims; the deterministic identity
	Size   int      // distinct tuples lying in the block
	Worker int      // LPT assignment
}

// Result is the computed partition.
type Result struct {
	// Blocks lists the non-empty virtual blocks in canonical order. The
	// n=1 fast path has one, of every tuple, which Stats leaves uncounted.
	Blocks []Block
	// Cubes[r] is rule r's hypercube, with each cell's block.
	Cubes []Cube
	// Hosted is Hosts under the blocks' Worker assignment: which workers
	// host each tuple when a run starts.
	Hosted []uint64
	Plan   *mqo.Plan
	Stats  Stats
}

// Dim is one dimension of a rule's hypercube: its hash function, its
// extent and its stride, the step one bucket advances the cell index by.
// Extents are powers of two (buildDims doubles them from 1), and a stride
// is the product of the extents before it, so a cell index is the bitwise
// OR of bucket·stride over the dimensions.
type Dim struct {
	Fn, Extent, Stride int
}

// VarCells is what one variable of a rule hashes of the rule's cube.
type VarCells struct {
	// Dims lists the dimensions the variable hashes, and Attrs, aligned,
	// the attribute of its tuples each one hashes.
	Dims, Attrs []int
	// Mask has the bits of the cell index that Dims occupy.
	Mask int32
	// Cells lists, by row of the variable's relation, the bits of the
	// cell index a tuple fixes: the OR over Dims of bucket·stride, where
	// bucket is the tuple's hash modulo the extent. HyPart's scan places
	// the tuple, for this variable, in every cell agreeing with it on
	// Mask. Nil when Mask is 0: the variable is broadcast over the cube.
	Cells []int32
}

// Cube is one rule's hypercube, as Partition resolved it.
type Cube struct {
	// Dims lists the dimensions in the order of the rule's distinct
	// variables (mqo.RuleAssignment.DVs).
	Dims []Dim
	// Vars[v] is what variable v hashes.
	Vars []VarCells
	// Blocks[c] is the index in Result.Blocks of the block cell c lies
	// in, -1 when that block is empty. Nil in a cube built by Cubes.
	Blocks []int32
}

// Size returns the number of cells: the product of the extents.
func (c *Cube) Size() int {
	n := 1
	for _, dm := range c.Dims {
		n *= dm.Extent
	}
	return n
}

// Extents lists the dimensions' extents, in Dims order: with the MQO plan
// they determine the cube (Cubes).
func (c *Cube) Extents() []int {
	out := make([]int, len(c.Dims))
	for i, dm := range c.Dims {
		out[i] = dm.Extent
	}
	return out
}

// images lists the cell offsets of every combination of the dimensions
// variable vc broadcasts over (extent above 1, not hashed by vc): a tuple
// whose cells entry is p lies, for vc, in the cells p+off. A single 0 when
// nothing is broadcast.
func (c *Cube) images(vc *VarCells) []int32 {
	out := []int32{0}
	for di, dm := range c.Dims {
		if dm.Extent > 1 && !slices.Contains(vc.Dims, di) {
			next := make([]int32, 0, len(out)*dm.Extent)
			for b := 0; b < dm.Extent; b++ {
				for _, off := range out {
					next = append(next, off+int32(b*dm.Stride))
				}
			}
			out = next
		}
	}
	return out
}

// Owned returns the bitmap of the cells worker w owns under assign, an
// assignment of Result.Blocks to workers: bit c of word c>>6 is set when
// cell c lies in a block assign puts on w. Every valuation of the rule
// lies in one cell, so over the workers the bitmaps partition the cells
// whose blocks hold a tuple.
func (c *Cube) Owned(assign []int, w int) []uint64 {
	out := make([]uint64, (len(c.Blocks)+63)>>6)
	for cell, b := range c.Blocks {
		if b >= 0 && assign[b] == w {
			out[cell>>6] |= 1 << (cell & 63)
		}
	}
	return out
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

// partitionSingle is the n=1 fast path: one block holding everything,
// and every rule's cube a single cell of extent-1 dimensions lying in it.
func partitionSingle(d *relation.Dataset, res *Result, metrics *telemetry.Registry) *Result {
	for _, ra := range res.Plan.Assignments {
		cb := newCube(d, ra, buildDims(ra, 1, 1, nil))
		cb.Blocks = []int32{0}
		res.Cubes = append(res.Cubes, cb)
	}
	res.Blocks = []Block{{Size: d.Size()}}
	res.Hosted = res.Hosts(d, []int{0}, 1)
	res.Stats.MaxFragment, res.Stats.MinFragment = d.Size(), d.Size()
	metrics.Histogram("dcer_hypart_fragment_size").Observe(uint64(d.Size()))
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

// newCube lays out the cube of a rule's dimensions, of the given extents:
// the strides and, per variable, the dimensions it hashes, their mask and,
// when that is not empty, a cells column for the scan to fill.
func newCube(d *relation.Dataset, ra *mqo.RuleAssignment, extents []int) Cube {
	c := Cube{Dims: make([]Dim, len(extents)), Vars: make([]VarCells, len(ra.Rule.Vars))}
	stride := 1
	for di, x := range extents {
		c.Dims[di] = Dim{Fn: ra.HashFn[di], Extent: x, Stride: stride}
		stride *= x
	}
	for v, rv := range ra.Rule.Vars {
		vc := &c.Vars[v]
		for di, dv := range ra.DVs {
			if attr, ok := dv.AttrOf(v); ok {
				vc.Dims, vc.Attrs = append(vc.Dims, di), append(vc.Attrs, attr)
				vc.Mask |= int32((c.Dims[di].Extent - 1) * c.Dims[di].Stride)
			}
		}
		if vc.Mask != 0 {
			vc.Cells = make([]int32, len(d.Relations[rv.RelIdx].TIDs()))
		}
	}
	return c
}

// blockIndex interns canonical block keys to dense block indexes while
// the cubes are resolved. Most candidate blocks of a sparse cube stay
// empty; Partition keeps the non-empty ones.
type blockIndex struct {
	byKey map[string]int32
	canon [][]uint64
}

// resolve maps each of cube c's ≤ n² cells (a mixed-radix coordinate
// vector, dimension 0 fastest) to the virtual block its canonical key
// names. Block keys embed (fn, extent, bucket) per dimension, so rules
// sharing all hash functions and extents resolve to the same blocks — the
// tuple-copy dedup that MQO sharing buys.
func (bx *blockIndex) resolve(c *Cube) []int32 {
	cells := make([]int32, c.Size())
	coord := make([]int, len(c.Dims))
	key := make([]uint64, len(c.Dims))
	raw := make([]byte, 8*len(c.Dims))
	for cell := range cells {
		for i, dm := range c.Dims {
			key[i] = packDim(dm.Fn, dm.Extent, coord[i])
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
		cells[cell] = b
		for i := range coord { // next cell: dimension 0 runs fastest
			if coord[i]++; coord[i] < c.Dims[i].Extent {
				break
			}
			coord[i] = 0
		}
	}
	return cells
}

// varScan is the per-(rule, variable) scan preparation shared by every
// shard: the rule's cube, the variable's share of it and its relation.
type varScan struct {
	cube *Cube
	vc   *VarCells
	rel  *relation.Relation
}

// scans prepares the scans of rule ra's variables with a cells column over
// cube c and appends their units to units.
func scans(units []unit, d *relation.Dataset, ra *mqo.RuleAssignment, c *Cube) []unit {
	for v, rv := range ra.Rule.Vars {
		sc := &varScan{cube: c, vc: &c.Vars[v], rel: d.Relations[rv.RelIdx]}
		if sc.vc.Cells == nil {
			continue
		}
		for lo := 0; lo < len(sc.rel.TIDs()); lo += unitChunk {
			units = append(units, unit{sc, lo, min(lo+unitChunk, len(sc.rel.TIDs()))})
		}
	}
	return units
}

// unit is one shard work item: a tuple range of one varScan.
type unit struct {
	scan   *varScan
	lo, hi int
}

// unitChunk bounds the tuples per work unit so large relations split
// across shards while the unit list stays short.
const unitChunk = 2048

// scratch is one scan goroutine's per-unit buffers.
type scratch struct {
	hash [unitChunk]uint32
	cell [unitChunk]int32
	row  [unitChunk]int32
}

// scan hashes one unit column by column into cell indexes and writes them
// to the variable's cells column, skipping the dimensions of extent 1,
// whose bucket is 0. The unit's tuples are a range of its relation's scan
// list (Relation.TIDs), whose column rows the dataset's row table gives:
// the range's own positions.
func (sa *scratch) scan(u unit, rowOf []int32, hasher *mqo.DenseHasher) {
	sc := u.scan
	tuples := sc.rel.TIDs()[u.lo:u.hi]
	hash, cell, rows := sa.hash[:len(tuples)], sa.cell[:len(tuples)], sa.row[:len(tuples)]
	for i, t := range tuples {
		cell[i], rows[i] = 0, rowOf[t]
	}
	for hi, di := range sc.vc.Dims {
		dm, attr := &sc.cube.Dims[di], sc.vc.Attrs[hi]
		if dm.Extent == 1 {
			continue
		}
		hasher.HashColumn(dm.Fn, sc.rel.Schema.Attrs[attr].Type, sc.rel.Col(attr), rows, hash)
		size, stride := uint32(dm.Extent), int32(dm.Stride)
		for i, h := range hash {
			cell[i] += int32(h%size) * stride
		}
	}
	copy(sc.vc.Cells[u.lo:u.hi], cell)
}

// runScans scans units on shards goroutines, one scratch each.
func runScans(units []unit, shards int, ptc telemetry.TraceContext, rowOf []int32, hasher *mqo.DenseHasher) {
	bufs := make([]scratch, shards)
	parallel(len(units), shards, ptc, "hypart.shard.scan", func(s, i int) {
		bufs[s].scan(units[i], rowOf, hasher)
	})
}

// parallel runs do(s, i) for every i below units on shards goroutines, s
// the goroutine's index, handing the units out from one atomic cursor.
// Each goroutine's share is a span called name on its own lane of ptc.
func parallel(units, shards int, ptc telemetry.TraceContext, name string, do func(s, i int)) {
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for s := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := ptc.Lane(telemetry.PIDHyPart, int32(s+1)).Start(name)
			for i := int(cursor.Add(1)) - 1; i < units; i = int(cursor.Add(1)) - 1 {
				do(s, i)
			}
			sp.End()
		}()
	}
	wg.Wait()
}

// image is what the size pass reads of one (rule, variable): the
// variable's cells column (nil: every tuple's entry is 0), its broadcast
// images and the candidate block of each of the rule's cells.
type image struct {
	cells, bcast, blocks []int32
}

// sizeBlocks counts, per candidate block, the distinct tuples lying in it:
// those with a (rule, variable) cells entry one of whose broadcast images
// is a cell of the block. It passes over each relation's row ranges on
// shards goroutines, each deduplicating a tuple's blocks through a stamp
// per candidate block; a row range belongs to one goroutine, so their
// counts add up exactly. It also returns |H(Σ,D)|, the tuple copies the
// images generate before that dedup.
func sizeBlocks(d *relation.Dataset, plan *mqo.Plan, cubes []Cube, cand [][]int32, numCand, shards int, ptc telemetry.TraceContext) ([]int, int64) {
	imgs := make([][]image, len(d.Relations))
	var generated int64
	for ri, ra := range plan.Assignments {
		for v, rv := range ra.Rule.Vars {
			vc := &cubes[ri].Vars[v]
			im := image{cells: vc.Cells, bcast: cubes[ri].images(vc), blocks: cand[ri]}
			imgs[rv.RelIdx] = append(imgs[rv.RelIdx], im)
			generated += int64(len(d.Relations[rv.RelIdx].TIDs()) * len(im.bcast))
		}
	}
	type rows struct{ rel, lo, hi int }
	var units []rows
	for rel, ims := range imgs {
		for lo, n := 0, len(d.Relations[rel].TIDs()); lo < n && len(ims) > 0; lo += unitChunk {
			units = append(units, rows{rel, lo, min(lo+unitChunk, n)})
		}
	}
	counts, stamps := make([][]int, shards), make([][]relation.TID, shards)
	for s := range counts {
		counts[s], stamps[s] = make([]int, numCand), make([]relation.TID, numCand)
	}
	parallel(len(units), shards, ptc, "hypart.shard.size", func(s, i int) {
		count, stamp, u := counts[s], stamps[s], units[i]
		for row, t := range d.Relations[u.rel].TIDs()[u.lo:u.hi] {
			for _, im := range imgs[u.rel] {
				p := int32(0)
				if im.cells != nil {
					p = im.cells[u.lo+row]
				}
				for _, off := range im.bcast {
					if b := im.blocks[p+off]; stamp[b] != t+1 {
						stamp[b] = t + 1
						count[b]++
					}
				}
			}
		}
	})
	sizes := counts[0]
	for _, count := range counts[1:] {
		for b, k := range count {
			sizes[b] += k
		}
	}
	return sizes, generated
}

// Partition splits dataset d into n workers' shares for the rule set Σ:
// virtual blocks, each on one worker, and every rule's cube over them.
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
		return partitionSingle(d, res, opts.Metrics), nil
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

	// Resolve every rule's cube to candidate blocks, prepare the
	// per-(rule, variable) scans and chunk them into units.
	bx := &blockIndex{byKey: make(map[string]int32)}
	var units []unit
	res.Cubes = make([]Cube, len(plan.Assignments))
	cand := make([][]int32, len(plan.Assignments)) // per rule, each cell's candidate block
	for ri, ra := range plan.Assignments {
		res.Cubes[ri] = newCube(d, ra, buildDims(ra, vb, repCap, relSizes))
		cand[ri] = bx.resolve(&res.Cubes[ri])
		units = scans(units, d, ra, &res.Cubes[ri])
	}

	shards := max(min(runtime.GOMAXPROCS(0), len(units)), 1)
	res.Stats.Shards = shards
	hasher := mqo.NewDenseHasher(plan.NumHashFns, d.Syms())
	runScans(units, shards, ptc, d.Rows(), hasher)
	res.Stats.HashComputations, res.Stats.HashLookups = hasher.Counts()
	sizes, generated := sizeBlocks(d, plan, res.Cubes, cand, len(bx.canon), shards, ptc)
	res.Stats.GeneratedTuples = generated

	// The non-empty blocks in canonical key order, so the result is
	// independent of the shard count and scheduling.
	var order []int
	for b, size := range sizes {
		if size > 0 {
			order = append(order, b)
		}
	}
	sort.Slice(order, func(i, j int) bool { return canonLess(bx.canon[order[i]], bx.canon[order[j]]) })
	blockOf := make([]int32, len(bx.canon)) // candidate block -> index in res.Blocks, -1 when empty
	for b := range blockOf {
		blockOf[b] = -1
	}
	res.Blocks = make([]Block, len(order))
	for bi, b := range order {
		blockOf[b] = int32(bi)
		res.Blocks[bi] = Block{Canon: bx.canon[b], Size: sizes[b]}
		res.Stats.PlacedTuples += int64(sizes[b])
	}
	res.Stats.Blocks = len(res.Blocks)
	for ri, cells := range cand {
		res.Cubes[ri].Blocks = make([]int32, len(cells))
		for cell, b := range cells {
			res.Cubes[ri].Blocks[cell] = blockOf[b]
		}
	}

	asp := ptc.Start("hypart.assign")
	defer asp.End()
	// LPT minimum-makespan assignment of virtual blocks to workers, by
	// block size (dmatch re-runs it onto the survivors after a death).
	assign := make([]int, len(res.Blocks))
	place := make([]int, len(res.Blocks))
	for b := range place {
		place[b] = b
	}
	AssignLPT(assign, place, res.Blocks, make([]int, n), nil)
	for b, w := range assign {
		res.Blocks[b].Worker = w
	}
	words := (n + 63) / 64
	hosted := make([]int, n)
	res.Hosted = res.Hosts(d, assign, n)
	for i, h := range res.Hosted {
		for ; h != 0; h &= h - 1 {
			hosted[i%words<<6+bits.TrailingZeros64(h)]++
		}
	}
	res.Stats.MinFragment = int(^uint(0) >> 1)
	for _, size := range hosted {
		res.Stats.MaxFragment = max(res.Stats.MaxFragment, size)
		res.Stats.MinFragment = min(res.Stats.MinFragment, size)
		opts.Metrics.Histogram("dcer_hypart_fragment_size").Observe(uint64(size))
	}
	return res, nil
}

// Hosts returns which of n workers host each tuple of d when assign puts
// block b on worker assign[b]: flat bitsets (n+63)/64 words wide, tuple
// gid's at gid·words. A worker hosts a tuple when it owns a cell the
// tuple lies in — for some variable of some rule over the tuple's
// relation, a broadcast image of the tuple's cells entry — so every tuple
// of a valuation in an owned cell is hosted. Per (rule, variable), a table
// maps each cells entry to the OR of its images' owners; a tuple's hosts
// are the OR of its variables' tables. Tuples no rule reads are hosted
// nowhere.
func (res *Result) Hosts(d *relation.Dataset, assign []int, n int) []uint64 {
	words := (n + 63) / 64
	hosts := make([]uint64, d.Size()*words)
	for ri, ra := range res.Plan.Assignments {
		c := &res.Cubes[ri]
		for v, rv := range ra.Rule.Vars {
			vc := &c.Vars[v]
			bcast := c.images(vc)
			table := make([]uint64, c.Size()*words) // by cells entry: a cell within Mask
			for p := range int32(c.Size()) {
				if p&^vc.Mask != 0 {
					continue
				}
				for _, off := range bcast {
					if b := c.Blocks[p+off]; b >= 0 {
						w := assign[b]
						table[int(p)*words+w>>6] |= 1 << (uint(w) & 63)
					}
				}
			}
			for row, gid := range d.Relations[rv.RelIdx].TIDs() {
				p := 0
				if vc.Cells != nil {
					p = int(vc.Cells[row])
				}
				dst := hosts[int(gid)*words : int(gid+1)*words]
				for i, x := range table[p*words : (p+1)*words] {
					dst[i] |= x
				}
			}
		}
	}
	return hosts
}

// Cubes derives the rules' cubes, without blocks, from the MQO plan a
// partition used and the extents it gave every rule's dimensions
// (Cube.Extents), hashing d's tuples into each variable's cells column as
// Partition's scan does: a worker process, which runs no partition,
// builds its cubes from what an Assign carries. Extents that cannot be
// the plan's are an error: a rule or dimension count other than the
// plan's, an extent that is not a power of two, a constant dimension
// wider than 1, or a cube past the virtual-block bound.
func Cubes(d *relation.Dataset, plan *mqo.Plan, extents [][]int) ([]Cube, error) {
	if len(extents) != len(plan.Assignments) {
		return nil, fmt.Errorf("hypart: extents for %d rules, the plan has %d", len(extents), len(plan.Assignments))
	}
	cubes := make([]Cube, len(extents))
	var units []unit
	for ri, ra := range plan.Assignments {
		if len(extents[ri]) != len(ra.DVs) {
			return nil, fmt.Errorf("hypart: rule %s: %d extents for %d dimensions", ra.Rule.Name, len(extents[ri]), len(ra.DVs))
		}
		cells := 1
		for di, x := range extents[ri] {
			if x < 1 || x&(x-1) != 0 || x > maxExtent/cells || ra.DVs[di].Const && x > 1 {
				return nil, fmt.Errorf("hypart: rule %s: extent %d of dimension %d does not fit the plan", ra.Rule.Name, x, di)
			}
			cells *= x
		}
		cubes[ri] = newCube(d, ra, extents[ri])
		units = scans(units, d, ra, &cubes[ri])
	}
	shards := max(min(runtime.GOMAXPROCS(0), len(units)), 1)
	runScans(units, shards, telemetry.TraceContext{}, d.Rows(), mqo.NewDenseHasher(plan.NumHashFns, d.Syms()))
	return cubes, nil
}

// AssignLPT places blocks with the LPT minimum-makespan heuristic: the
// blocks listed in place, in descending Size order (ties keep place's
// order, which callers give ascending, i.e. canonical key order), each go
// to the least-loaded worker alive reports live (ties to the lowest; nil
// alive means every worker), whose load grows by the block's Size.
// assign[b] receives block b's worker; load holds one entry per worker,
// the tuples it already carries on entry. place is reordered. Partition
// places every block on empty workers; dmatch, after a death, places the
// dead workers' blocks onto the survivors' loads.
func AssignLPT(assign, place []int, blocks []Block, load []int, alive func(int) bool) {
	sort.SliceStable(place, func(i, j int) bool { return blocks[place[i]].Size > blocks[place[j]].Size })
	for _, b := range place {
		w := -1
		for i := range load {
			if (alive == nil || alive(i)) && (w < 0 || load[i] < load[w]) {
				w = i
			}
		}
		assign[b] = w
		load[w] += blocks[b].Size
	}
}

// buildDims allocates hypercube extents to a rule's dimensions by greedy
// doubling, the pragmatic stand-in for the Lagrangean allocation of
// Afrati-Ullman: at each step it doubles the dimension whose member
// variables contribute the most tuples to each block (so the doubling
// shrinks the expected block the most), refusing any doubling that would
// push some variable's broadcast product beyond repCap or exceed the block
// budget vb. Constant-pinned dimensions carry one value and keep extent 1.
// It returns the extents in the order of ra.DVs.
func buildDims(ra *mqo.RuleAssignment, vb, repCap int, relSizes []int) []int {
	size := make([]int, len(ra.DVs))
	for di := range size {
		size[di] = 1
	}
	nvars := len(ra.Rule.Vars)
	// replication(v) = product of extents of dimensions without a member
	// on v — the number of copies each tuple bound to v generates.
	replication := func(v int) int {
		r := 1
		for di, dv := range ra.DVs {
			if _, ok := dv.AttrOf(v); !ok {
				r *= size[di]
			}
		}
		return r
	}
	// contribution(v) = expected tuples variable v places in one block.
	contribution := func(v int) float64 {
		c := float64(relSizes[ra.Rule.Vars[v].RelIdx])
		for di, dv := range ra.DVs {
			if _, ok := dv.AttrOf(v); ok {
				c /= float64(size[di])
			}
		}
		return c
	}
	product := 1
	for product*2 <= vb {
		best, bestGain := -1, 0.0
		for di, dv := range ra.DVs {
			if dv.Const {
				continue
			}
			// Doubling di halves its member variables' block contribution
			// but doubles the broadcast of every non-member variable;
			// check the cap.
			ok := true
			gain := 0.0
			for v := 0; v < nvars; v++ {
				if _, member := dv.AttrOf(v); member {
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
		size[best] *= 2
		product *= 2
	}
	return size
}
