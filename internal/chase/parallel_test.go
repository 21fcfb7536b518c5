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
	"dcer/internal/rule"
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
// on randomized datasets and rule sets, and on small TPCH and TFACC
// instances, the engine at GOMAXPROCS 1 (one goroutine runs every task)
// and at the live width must deduce the same fact sequence, byte for byte
// (gammaDigest), for Run, for an IncDeduce replay of every other fact of
// Run into a fresh engine — whose drain deduces the rest — and for a
// random split of the dataset, withheld from Run and appended through
// InsertTuples in random batches.
func TestDeduceParallelEquivalence(t *testing.T) {
	reg := mlpred.DefaultRegistry()
	width := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(width)
	seeds := int64(40)
	if testing.Short() {
		seeds = 12
	}
	type instance struct {
		name  string
		d     *relation.Dataset
		rules []*rule.Rule
	}
	var insts []instance
	for _, g := range []struct {
		name string
		gen  *datagen.Generated
	}{
		{"tpch0.2", datagen.TPCH(datagen.TPCHOptions{Scale: 0.2, Dup: 0.3, Seed: 1})},
		{"tfacc0.1", datagen.TFACC(datagen.TFACCOptions{Scale: 0.1, Dup: 0.3, Seed: 1})},
	} {
		rules, err := g.gen.Rules()
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, instance{g.name, g.gen.D, rules})
	}
	for seed := int64(200); seed < 200+seeds; seed++ {
		d, rules, err := datagen.RandomInstance(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		insts = append(insts, instance{"seed " + strconv.FormatInt(seed, 10), d, rules})
	}
	arms := []string{"Run", "IncDeduce replay", "InsertTuples split"}
	for k, in := range insts {
		var digests [2][]string
		for wi, w := range []int{1, width} {
			runtime.GOMAXPROCS(w)
			run := modeDefault.engine(t, in.d, in.rules, reg)
			var half []chase.Fact
			for i, f := range run.Deduce() {
				if i%2 == 0 {
					half = append(half, f)
				}
			}
			replay := modeDefault.engine(t, in.d, in.rules, reg)
			replay.IncDeduce(half)
			split := randomSplit(t, in.d, in.rules, reg, rand.New(rand.NewSource(int64(k))))
			for _, eng := range []*chase.Engine{run, replay, split} {
				digests[wi] = append(digests[wi], gammaDigest(eng.Gamma()))
			}
		}
		for i, arm := range arms {
			if digests[0][i] != digests[1][i] {
				t.Fatalf("%s: %s: Γ's fact sequence differs between width 1 and %d\nrules:\n%s",
					in.name, arm, width, rulesOf(in.rules))
			}
		}
	}
}

// TestDrainParallelEquivalence is the property test for the drain's
// chunking: a batch splits into one chunk per processor (and one per
// minDrainJobsPerWorker jobs), so the width decides how its jobs spread
// over pool tasks and in what pieces their facts merge. On randomized
// instances, the engine at GOMAXPROCS 1, 2 and 4 — forced, so a host of
// any width splits the drain's batches more than one way — must deduce the
// same fact sequence (gammaDigest) and reach byte-identical equivalence
// classes and validated sets.
func TestDrainParallelEquivalence(t *testing.T) {
	reg := mlpred.DefaultRegistry()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	seeds := int64(40)
	if testing.Short() {
		seeds = 12
	}
	widths := []int{1, 2, 4}
	for seed := int64(400); seed < 400+seeds; seed++ {
		d, rules, err := datagen.RandomInstance(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var digests, classes, validated []string
		for _, w := range widths {
			runtime.GOMAXPROCS(w)
			eng := modeDefault.engine(t, d, rules, reg)
			eng.Run()
			digests = append(digests, gammaDigest(eng.Gamma()))
			classes = append(classes, canonClasses(eng.Classes()))
			validated = append(validated, canonValidated(eng.Gamma().Validated))
		}
		for i := 1; i < len(widths); i++ {
			if classes[i] != classes[0] {
				t.Fatalf("seed %d: width %d classes diverge from width 1:\nwidth 1:\n%s\ngot:\n%s",
					seed, widths[i], classes[0], classes[i])
			}
			if validated[i] != validated[0] {
				t.Fatalf("seed %d: width %d validated set diverges:\nwidth 1:\n%s\ngot:\n%s",
					seed, widths[i], validated[0], validated[i])
			}
			if digests[i] != digests[0] {
				t.Fatalf("seed %d: width %d fact sequence differs from width 1\nrules:\n%s",
					seed, widths[i], rulesOf(rules))
			}
		}
	}
}

// randomSplit withholds a random third of d's tuples, resolves the rest
// with Run, and appends the withheld tuples through InsertTuples in up to
// four batches of random sizes.
func randomSplit(t *testing.T, d *relation.Dataset, rules []*rule.Rule, reg *mlpred.Registry, rng *rand.Rand) *chase.Engine {
	t.Helper()
	d2 := relation.NewDataset(d.DB)
	var held []*relation.Tuple
	for _, tt := range d.Tuples() {
		if rng.Intn(3) == 0 {
			held = append(held, tt)
			continue
		}
		d2.MustAppend(d.DB.Schemas[tt.Rel].Name, tt.Values()...)
	}
	eng := modeDefault.engine(t, d2, rules, reg)
	eng.Run()
	if len(held) == 0 {
		return eng
	}
	for _, n := range batchSizes(rng, len(held), 1+rng.Intn(4)) {
		var batch []*relation.Tuple
		for _, tt := range held[:n] {
			batch = append(batch, d2.MustAppend(d.DB.Schemas[tt.Rel].Name, tt.Values()...))
		}
		held = held[n:]
		if _, err := eng.InsertTuples(batch); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// TestInsertTuplesRandomSplitEquivalence is the property test for the
// incremental ΔD path: withholding a random slice of a random instance and
// inserting it later — in one batch, or in two or five batches of random
// sizes, one of them a single tuple — must reach exactly the Γ of a full
// chase over the whole dataset, whether or not the rest was resolved with
// Run first: without it,
// the first batch's seed pass must take in the tuples New found too.
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
		for _, arm := range []struct {
			batches int
			run     bool
		}{{1, true}, {2, true}, {5, true}, {1, false}, {5, false}} {
			batches := arm.batches
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
			eng := modeDefault.engine(t, d2, rules, reg)
			if arm.run {
				eng.Run()
			}
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
						t.Fatalf("seed %d, %d batches, Run first %v: scratch and incremental disagree on (%d,%d)\nrules:\n%s",
							seed, batches, arm.run, i, j, rulesOf(rules))
					}
				}
			}
			want := make([]chase.Fact, 0, len(scratch.Gamma().Validated))
			for _, f := range scratch.Gamma().Validated {
				want = append(want, chase.MLFact(f.Model, gidMap[f.A], gidMap[f.B]))
			}
			if wv, gv := canonValidated(want), canonValidated(eng.Gamma().Validated); wv != gv {
				t.Fatalf("seed %d, %d batches, Run first %v: validated sets differ:\nscratch:\n%s\nincremental:\n%s",
					seed, batches, arm.run, wv, gv)
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
