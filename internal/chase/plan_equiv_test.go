package chase_test

import (
	"reflect"
	"testing"

	"dcer/internal/chase"
	"dcer/internal/datagen"
	"dcer/internal/dmatch"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

// gammaOf runs a fresh engine over (d, rules) with opts and returns Γ.
func gammaOf(t *testing.T, d *relation.Dataset, rules []*rule.Rule, reg *mlpred.Registry, opts chase.Options) *chase.Gamma {
	t.Helper()
	eng, err := chase.New(d, rules, reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng.Run()
}

// TestPlanGammaEquivalence is the compiled-plan determinism property: on
// random rules and datasets, Γ — the exact fact log, not just the final
// equivalence classes — must be byte-identical between the interpreter
// (Options.InterpretRules) and the compiled plans, under the sequential
// and the batched/parallel drain, with and without aggressive adaptive
// reordering (PlanResortMinEvals: 1 re-sorts at every round boundary).
func TestPlanGammaEquivalence(t *testing.T) {
	reg := mlpred.DefaultRegistry()
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	modes := []struct {
		name string
		opts chase.Options
	}{
		{"seq", chase.Options{ShareIndexes: true, SequentialDeduce: true, SequentialDrain: true}},
		{"conc", chase.Options{ShareIndexes: true}},
		{"conc/batched-drain", chase.Options{ShareIndexes: true, DrainParallelMin: 1}},
		{"noMQO", chase.Options{ShareIndexes: false, DrainParallelMin: 1}},
	}
	for seed := int64(200); seed < 200+seeds; seed++ {
		d, rules, err := datagen.RandomInstance(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, m := range modes {
			interp := m.opts
			interp.InterpretRules = true
			want := gammaOf(t, d, rules, reg, interp)

			planned := m.opts
			got := gammaOf(t, d, rules, reg, planned)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d mode %s: Γ differs between interpreter and compiled plans\nrules:\n%s",
					seed, m.name, rulesOf(rules))
			}

			eager := m.opts
			eager.PlanResortMinEvals = 1
			got = gammaOf(t, d, rules, reg, eager)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d mode %s: Γ differs under per-round adaptive reordering\nrules:\n%s",
					seed, m.name, rulesOf(rules))
			}
		}
	}
}

// TestPlanDMatchEquivalence extends the property to the parallel BSP
// engine: the deduplicated global fact sets must be identical between
// interpreter and compiled-plan worker engines for w ∈ {1, 4}.
func TestPlanDMatchEquivalence(t *testing.T) {
	reg := mlpred.DefaultRegistry()
	seeds := int64(16)
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(300); seed < 300+seeds; seed++ {
		d, rules, err := datagen.RandomInstance(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, workers := range []int{1, 4} {
			run := func(interpret bool) *dmatch.Result {
				res, err := dmatch.Run(d, rules, reg, dmatch.Options{
					Workers:        workers,
					InterpretRules: interpret,
					// Eager reordering inside every worker engine, so the
					// parallel path also exercises mid-run re-sorts.
					PlanResortMinEvals: 1,
				})
				if err != nil {
					t.Fatalf("seed %d w=%d interpret=%v: %v", seed, workers, interpret, err)
				}
				return res
			}
			want, got := run(true), run(false)
			if !reflect.DeepEqual(want.Matches, got.Matches) || !reflect.DeepEqual(want.Validated, got.Validated) {
				t.Fatalf("seed %d w=%d: global Γ differs between interpreter and compiled plans\nrules:\n%s",
					seed, workers, rulesOf(rules))
			}
		}
	}
}

// TestPlanAdaptiveReorderEquivalence forces an adaptive reorder: the
// static seed order (const before intra) is maximally anti-selective —
// the constant never fails, the intra-tuple equality almost always does —
// so the first round boundary must re-sort the program, and Γ must still
// equal the interpreter's.
func TestPlanAdaptiveReorderEquivalence(t *testing.T) {
	str := relation.TypeString
	a := func(n string) relation.Attribute { return relation.Attribute{Name: n, Type: str} }
	db := relation.MustDatabase(relation.MustSchema("P", "pk", a("pk"), a("x"), a("y")))
	build := func() *relation.Dataset {
		d := relation.NewDataset(db)
		ys := []string{"u", "a1", "a2", "a3", "a4", "a5", "a6", "a7"}
		for i := 0; i < 64; i++ {
			y := ys[i%len(ys)] // every 8th tuple has y = "u"
			d.MustAppend("P", relation.S(string(rune('A'+i/26))+string(rune('a'+i%26))), relation.S("u"), relation.S(y))
		}
		return d
	}
	rules, err := rule.ParseResolved(
		"anti: P(a) ^ P(b) ^ a.x = \"u\" ^ a.x = a.y ^ a.y = b.y -> a.id = b.id\n", db)
	if err != nil {
		t.Fatal(err)
	}
	reg := mlpred.DefaultRegistry()

	interp, err := chase.New(build(), rules, reg, chase.Options{ShareIndexes: true, InterpretRules: true})
	if err != nil {
		t.Fatal(err)
	}
	want := interp.Run()

	eng, err := chase.New(build(), rules, reg, chase.Options{ShareIndexes: true, PlanResortMinEvals: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := eng.Run()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("Γ differs between interpreter and compiled plans under forced reorder")
	}
	if n := eng.Stats().PlanReorders; n < 1 {
		t.Fatalf("PlanReorders = %d, want >= 1 (anti-selective static order must trigger a re-sort)", n)
	}
	// The re-sorted program must rank the near-always-failing intra check
	// before the never-failing constant.
	rep := eng.PlanReport()
	preds := rep.Rules[0].Vars[0].Preds
	if len(preds) < 2 || preds[0].Kind != "intra" {
		t.Fatalf("re-sorted program does not lead with the intra check: %+v", preds)
	}
	if interp.Stats().PlanReorders != 0 {
		t.Fatalf("interpreter mode must never reorder")
	}
}
