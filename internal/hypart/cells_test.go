package hypart_test

import (
	"fmt"
	"reflect"
	"testing"

	"dcer/internal/datagen"
	"dcer/internal/hypart"
	"dcer/internal/mqo"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

// TestCubeOwnership holds the cubes a partition exposes — what a DMatch
// worker's cell test reads — to HyPart's own placement, at a scale the
// random instances of TestLemma6LocalityRandom cannot reach: TPCH 0.2 and
// TFACC 0.2, at 2, 3, 4 and 8 workers, with and without MQO sharing.
//   - Per rule, the workers' owned cells partition the cells whose block
//     holds a tuple: each is owned by exactly one worker, and a cell of an
//     empty block by none.
//   - A variable's cells column is, bit for bit, the OR over its hashed
//     dimensions of bucket·stride, the bucket recomputed here with the
//     value-keyed mqo.Hasher.
//   - Three readings of "worker w hosts tuple t" agree: t passes the cell
//     test (c&Mask equals its cells entry) of a cell c w owns, for some
//     variable over t's relation; Hosts says w hosts t; and the reference
//     partitioner put t in a block of w's.
//   - The cubes a worker process derives from the plan and the extents
//     (Cubes) are the partition's, blocks aside.
func TestCubeOwnership(t *testing.T) {
	gens := []struct {
		name string
		g    *datagen.Generated
	}{
		{"tpch0.2", datagen.TPCH(datagen.TPCHOptions{Scale: 0.2, Dup: 0.3, Seed: 1})},
		{"tfacc0.2", datagen.TFACC(datagen.TFACCOptions{Scale: 0.2, Dup: 0.3, Seed: 1})},
	}
	for _, gn := range gens {
		d := gn.g.D
		rules, err := gn.g.Rules()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 3, 4, 8} {
			for _, share := range []bool{true, false} {
				name := fmt.Sprintf("%s/n=%d/share=%v", gn.name, n, share)
				res, err := hypart.Partition(d, rules, n, hypart.Options{Share: share})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkOwnership(t, name, d, res, n)
				checkPlacement(t, name, d, rules, res, n, share)
				extents := make([][]int, len(res.Cubes))
				for r := range res.Cubes {
					extents[r] = res.Cubes[r].Extents()
				}
				cubes, err := hypart.Cubes(d, res.Plan, extents)
				if err != nil {
					t.Fatalf("%s: Cubes: %v", name, err)
				}
				for r := range cubes {
					if !reflect.DeepEqual(cubes[r].Dims, res.Cubes[r].Dims) || !reflect.DeepEqual(cubes[r].Vars, res.Cubes[r].Vars) {
						t.Fatalf("%s: rule %d: the cube derived from the extents differs from the partition's", name, r)
					}
				}
			}
		}
	}
}

// TestHostsMatchReference: the hosts read off the cells (Result.Hosts)
// equal, bit for bit, those the reference partitioner's member lists give
// under Partition's assignment, and every block's Size is its list's
// length: TPCH 0.5 and TFACC 0.3, at 2, 3, 4 and 8 workers, with and
// without MQO sharing. DMatch routes by these bitsets, so their identity
// keeps its messages where the lists put them.
func TestHostsMatchReference(t *testing.T) {
	gens := []struct {
		name string
		g    *datagen.Generated
	}{
		{"tpch0.5", datagen.TPCH(datagen.TPCHOptions{Scale: 0.5, Dup: 0.3, Seed: 1})},
		{"tfacc0.3", datagen.TFACC(datagen.TFACCOptions{Scale: 0.3, Dup: 0.3, Seed: 1})},
	}
	for _, gn := range gens {
		d := gn.g.D
		rules, err := gn.g.Rules()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 3, 4, 8} {
			for _, share := range []bool{true, false} {
				name := fmt.Sprintf("%s/n=%d/share=%v", gn.name, n, share)
				opts := hypart.Options{Share: share}
				res, err := hypart.Partition(d, rules, n, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				lists := referenceLists(t, d, rules, n, opts, res)
				assign := make([]int, len(res.Blocks))
				for b, blk := range res.Blocks {
					assign[b] = blk.Worker
					if blk.Size != len(lists[b]) {
						t.Fatalf("%s: block %d holds %d tuples, the reference's %d", name, b, blk.Size, len(lists[b]))
					}
				}
				hosts, want := res.Hosts(d, assign, n), listHosts(lists, assign, d.Size(), n)
				words := (n + 63) / 64
				for i := range want {
					if hosts[i] != want[i] {
						t.Fatalf("%s: tuple %d: hosts %b, the reference lists give %b", name, i/words, hosts[i], want[i])
					}
				}
			}
		}
	}
}

// checkOwnership checks that the owned cells of n workers partition every
// cube's cells that lie in a block.
func checkOwnership(t *testing.T, name string, d *relation.Dataset, res *hypart.Result, n int) {
	t.Helper()
	assign := make([]int, len(res.Blocks))
	for b := range res.Blocks {
		assign[b] = res.Blocks[b].Worker
	}
	for r := range res.Cubes {
		cb := &res.Cubes[r]
		owners := make([]int, cb.Size())
		for w := range n {
			owned := cb.Owned(assign, w)
			for c := range owners {
				if owned[c>>6]&(1<<(c&63)) != 0 {
					owners[c]++
				}
			}
		}
		for c, k := range owners {
			if want := min(1, int(cb.Blocks[c]+1)); k != want {
				t.Fatalf("%s: rule %d: cell %d (block %d) owned by %d workers, want %d", name, r, c, cb.Blocks[c], k, want)
			}
		}
	}
}

// checkPlacement checks the cells columns against an independent hash,
// and the cell test, Hosts and the reference's lists against each other.
func checkPlacement(t *testing.T, name string, d *relation.Dataset, rules []*rule.Rule, res *hypart.Result, n int, share bool) {
	t.Helper()
	hasher := mqo.NewHasher()
	assign := make([]int, len(res.Blocks))
	for b := range res.Blocks {
		assign[b] = res.Blocks[b].Worker
	}
	words := (n + 63) / 64
	passes := make([]uint64, d.Size()*words) // per tuple, the workers whose cell test it passes
	for r := range res.Cubes {
		cb := &res.Cubes[r]
		owner := make([]int, cb.Size())
		for c := range owner {
			owner[c] = -1
		}
		for w := range n {
			owned := cb.Owned(assign, w)
			for c := range owner {
				if owned[c>>6]&(1<<(c&63)) != 0 {
					owner[c] = w
				}
			}
		}
		for v, vc := range cb.Vars {
			rel := d.Relations[res.Plan.Assignments[r].Rule.Vars[v].RelIdx]
			if (vc.Cells == nil) != (vc.Mask == 0) {
				t.Fatalf("%s: rule %d variable %d: mask %b with a cells column of %d", name, r, v, vc.Mask, len(vc.Cells))
			}
			for row, tu := range rel.Tuples {
				var bits int32
				for k, di := range vc.Dims {
					if dm := cb.Dims[di]; dm.Extent > 1 {
						bits |= int32(int(hasher.Hash(dm.Fn, tu.Val(vc.Attrs[k])))%dm.Extent) * int32(dm.Stride)
					}
				}
				if vc.Cells != nil && vc.Cells[row] != bits {
					t.Fatalf("%s: rule %d variable %d row %d: cells entry %b, the hash gives %b", name, r, v, row, vc.Cells[row], bits)
				}
				for c, w := range owner {
					if int32(c)&vc.Mask == bits && w >= 0 {
						passes[int(tu.GID)*words+w>>6] |= 1 << (w & 63)
					}
				}
			}
		}
	}
	hosts := res.Hosts(d, assign, n)
	ref := listHosts(referenceLists(t, d, rules, n, hypart.Options{Share: share}, res), assign, d.Size(), n)
	for i := range hosts {
		if passes[i] != hosts[i] || ref[i] != hosts[i] {
			t.Fatalf("%s: tuple %d: hosts %b, its cell tests pass for %b, the reference's blocks put it on %b",
				name, i/words, hosts[i], passes[i], ref[i])
		}
	}
}
