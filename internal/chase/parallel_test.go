package chase_test

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dcer/internal/chase"
	"dcer/internal/datagen"
	"dcer/internal/dmatch"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
)

// canonClasses renders equivalence classes canonically for comparison.
func canonClasses(classes [][]relation.TID) string {
	canon := make([][]relation.TID, len(classes))
	for i, c := range classes {
		cc := append([]relation.TID(nil), c...)
		sort.Slice(cc, func(a, b int) bool { return cc[a] < cc[b] })
		canon[i] = cc
	}
	sort.Slice(canon, func(a, b int) bool { return canon[a][0] < canon[b][0] })
	var b strings.Builder
	for _, c := range canon {
		for _, id := range c {
			b.WriteString(" ")
			b.WriteString(strconv.Itoa(int(id)))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// canonValidated renders a validated-prediction set canonically.
func canonValidated(facts []chase.Fact) string {
	keys := make([]string, len(facts))
	for i, f := range facts {
		keys[i] = f.String()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// TestDeduceParallelEquivalence is the property test for the pool's width:
// on randomized datasets and rule sets, the standalone engine at
// GOMAXPROCS 1 (one goroutine, every drain batch live) and at the live
// width must reach byte-identical equivalence classes and validated sets.
func TestDeduceParallelEquivalence(t *testing.T) {
	reg := mlpred.DefaultRegistry()
	width := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(width)
	seeds := int64(40)
	if testing.Short() {
		seeds = 12
	}
	for seed := int64(200); seed < 200+seeds; seed++ {
		d, rules, err := datagen.RandomInstance(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var classes, validated []string
		for _, w := range []int{1, width} {
			runtime.GOMAXPROCS(w)
			eng, err := chase.New(d, rules, reg, chase.Options{ShareIndexes: true})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			eng.Run()
			classes = append(classes, canonClasses(eng.Classes()))
			validated = append(validated, canonValidated(eng.Gamma().Validated))
		}
		if classes[0] != classes[1] {
			t.Fatalf("seed %d: Deduce classes differ between width 1 and %d:\nwidth 1:\n%s\nwidth %d:\n%s",
				seed, width, classes[0], width, classes[1])
		}
		if validated[0] != validated[1] {
			t.Fatalf("seed %d: validated sets differ between width 1 and %d:\nwidth 1:\n%s\nwidth %d:\n%s",
				seed, width, validated[0], width, validated[1])
		}
	}
}

// TestDrainParallelEquivalence is the property test for the batched
// parallel drain: on randomized instances, the live drain, the drain the
// engine picks itself, and a forced parallel drain (every batch fans out)
// must reach byte-identical equivalence classes and validated sets.
func TestDrainParallelEquivalence(t *testing.T) {
	reg := mlpred.DefaultRegistry()
	seeds := int64(40)
	if testing.Short() {
		seeds = 12
	}
	for seed := int64(400); seed < 400+seeds; seed++ {
		d, rules, err := datagen.RandomInstance(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opts := []engineMode{modeLive, modeDefault, modeBatched}
		var classes, validated []string
		for _, o := range opts {
			eng := o.engine(t, d, rules, reg)
			eng.Run()
			classes = append(classes, canonClasses(eng.Classes()))
			validated = append(validated, canonValidated(eng.Gamma().Validated))
		}
		for i := 1; i < len(opts); i++ {
			if classes[i] != classes[0] {
				t.Fatalf("seed %d: drain mode %s classes diverge from sequential:\nseq:\n%s\ngot:\n%s",
					seed, opts[i], classes[0], classes[i])
			}
			if validated[i] != validated[0] {
				t.Fatalf("seed %d: drain mode %s validated set diverges:\nseq:\n%s\ngot:\n%s",
					seed, opts[i], validated[0], validated[i])
			}
		}
	}
}

// TestInsertTuplesRandomSplitEquivalence is the property test for the
// incremental ΔD path: withholding a random slice of a random instance and
// inserting it later — in one batch, or in two or five batches of random
// sizes, one of them a single tuple — must reach exactly the Γ of a full
// chase over the whole dataset, under the default and the forced batched
// drain.
func TestInsertTuplesRandomSplitEquivalence(t *testing.T) {
	reg := mlpred.DefaultRegistry()
	seeds := int64(25)
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(500); seed < 500+seeds; seed++ {
		d, rules, err := datagen.RandomInstance(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		scratch, err := chase.New(d, rules, reg, chase.Options{ShareIndexes: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		scratch.Run()
		rng := rand.New(rand.NewSource(seed))
		for _, opts := range []engineMode{modeDefault, modeBatched} {
			for _, batches := range []int{1, 2, 5} {
				// Rebuild withholding every k-th tuple, chase, then insert them.
				k := 3 + int(seed%4)
				d2 := relation.NewDataset(d.DB)
				gidMap := make(map[relation.TID]relation.TID) // src gid -> new gid
				var heldSrc []*relation.Tuple
				for i, tt := range d.Tuples() {
					if i%k == 1 {
						heldSrc = append(heldSrc, tt)
						continue
					}
					nt := d2.MustAppend(d.DB.Schemas[tt.Rel].Name, tt.Values()...)
					gidMap[tt.GID] = nt.GID
				}
				eng := opts.engine(t, d2, rules, reg)
				eng.Run()
				for _, n := range batchSizes(rng, len(heldSrc), batches) {
					var batch []*relation.Tuple
					for _, tt := range heldSrc[:n] {
						nt := d2.MustAppend(d.DB.Schemas[tt.Rel].Name, tt.Values()...)
						gidMap[tt.GID] = nt.GID
						batch = append(batch, nt)
					}
					heldSrc = heldSrc[n:]
					if _, err := eng.InsertTuples(batch); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
				for i := 0; i < d.Size(); i++ {
					for j := i + 1; j < d.Size(); j++ {
						a, b := relation.TID(i), relation.TID(j)
						if scratch.Same(a, b) != eng.Same(gidMap[a], gidMap[b]) {
							t.Fatalf("seed %d mode %s, %d batches: scratch and incremental disagree on (%d,%d)\nrules:\n%s",
								seed, opts, batches, i, j, rulesOf(rules))
						}
					}
				}
				want := make([]chase.Fact, 0, len(scratch.Gamma().Validated))
				for _, f := range scratch.Gamma().Validated {
					want = append(want, chase.MLFact(f.Model, gidMap[f.A], gidMap[f.B]))
				}
				if wv, gv := canonValidated(want), canonValidated(eng.Gamma().Validated); wv != gv {
					t.Fatalf("seed %d mode %s, %d batches: validated sets differ:\nscratch:\n%s\nincremental:\n%s",
						seed, opts, batches, wv, gv)
				}
			}
		}
	}
}

// batchSizes cuts n tuples into k batches of random sizes (n batches when n
// < k), one of them a single tuple when there are several.
func batchSizes(rng *rand.Rand, n, k int) []int {
	if k = min(k, n); k <= 1 {
		return []int{n}
	}
	// k−2 distinct cut points split the other n−1 tuples into k−1 batches.
	cuts := rng.Perm(n - 2)[:k-2]
	for i := range cuts {
		cuts[i]++
	}
	sort.Ints(cuts)
	sizes := make([]int, 0, k)
	prev := 0
	for _, c := range append(cuts, n-1) {
		sizes = append(sizes, c-prev)
		prev = c
	}
	return slices.Insert(sizes, rng.Intn(k), 1)
}

// TestDMatchModesEquivalence is the property test for the dmatch execution
// modes: sequential supersteps (one worker at a time) and the parallel
// default must produce the same global
// equivalence classes and validated set on randomized instances.
func TestDMatchModesEquivalence(t *testing.T) {
	reg := mlpred.DefaultRegistry()
	seeds := int64(30)
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(300); seed < 300+seeds; seed++ {
		d, rules, err := datagen.RandomInstance(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		workers := 2 + int(seed%5)
		modes := []dmatch.Options{
			{Workers: workers, Sequential: true},
			{Workers: workers},
		}
		var classes, validated []string
		for _, opts := range modes {
			res, err := dmatch.Run(d, rules, reg, opts)
			if err != nil {
				t.Fatalf("seed %d opts %+v: %v", seed, opts, err)
			}
			classes = append(classes, canonClasses(res.Classes()))
			validated = append(validated, canonValidated(res.Validated))
		}
		for i := 1; i < len(modes); i++ {
			if classes[i] != classes[0] {
				t.Fatalf("seed %d n=%d: mode %+v classes diverge from sequential:\nseq:\n%s\ngot:\n%s",
					seed, workers, modes[i], classes[0], classes[i])
			}
			if validated[i] != validated[0] {
				t.Fatalf("seed %d n=%d: mode %+v validated set diverges:\nseq:\n%s\ngot:\n%s",
					seed, workers, modes[i], validated[0], validated[i])
			}
		}
	}
}
