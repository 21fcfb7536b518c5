package hypart_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"dcer/internal/datagen"
	"dcer/internal/hypart"
	"dcer/internal/mqo"
	"dcer/internal/relation"
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
//   - A tuple passes a variable's cell test for cell c (c&Mask equals its
//     cells entry) exactly when HyPart placed it, for that variable, in
//     the block c lies in: every such block holds it, and every tuple of a
//     block passes the test of some variable of some rule of the block for
//     a cell lying in it.
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
				checkPlacement(t, name, d, res)
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

// checkPlacement checks the cells columns against an independent hash and
// the cell test against the blocks' contents, both ways.
func checkPlacement(t *testing.T, name string, d *relation.Dataset, res *hypart.Result) {
	t.Helper()
	hasher := mqo.NewHasher()
	// inBlock[r][b] lists the cells of rule r's cube lying in block b.
	inBlock := make([]map[int32][]int32, len(res.Cubes))
	for r := range res.Cubes {
		cb := &res.Cubes[r]
		inBlock[r] = make(map[int32][]int32)
		for c, b := range cb.Blocks {
			inBlock[r][b] = append(inBlock[r][b], int32(c))
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
				for c, b := range cb.Blocks {
					if int32(c)&vc.Mask != bits {
						continue
					}
					if b < 0 {
						t.Fatalf("%s: rule %d: tuple %d passes the test for cell %d, whose block is empty", name, r, tu.GID, c)
					}
					if _, ok := slices.BinarySearch(res.Blocks[b].GIDs, tu.GID); !ok {
						t.Fatalf("%s: rule %d: tuple %d passes the test for cell %d, whose block %d lacks it", name, r, tu.GID, c, b)
					}
				}
			}
		}
	}
	rows := d.Rows()
	for b, blk := range res.Blocks {
		for _, gid := range blk.GIDs {
			placed := false
			for _, r := range blk.Rules {
				cb := &res.Cubes[r]
				for v, vc := range cb.Vars {
					if res.Plan.Assignments[r].Rule.Vars[v].RelIdx != d.RelOf(gid) {
						continue
					}
					for _, c := range inBlock[r][int32(b)] {
						if vc.Cells == nil || c&vc.Mask == vc.Cells[rows[gid]] {
							placed = true
						}
					}
				}
			}
			if !placed {
				t.Fatalf("%s: block %d holds tuple %d, which no variable's cell test places there", name, b, gid)
			}
		}
	}
}
