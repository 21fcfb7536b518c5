package chase_test

import (
	"testing"

	"dcer/internal/complexity"
	"dcer/internal/datagen"
	"dcer/internal/dmatch"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

// TestEngineMatchesNaiveOracle cross-validates the optimized engine
// against the brute-force reference chase on many random instances, with
// and without shared indexes and under the interpreter: the final equivalence relations must be
// identical. The oracle enumerates every valuation of every rule, so this
// is also the completeness check of the symmetry reduction (about half of
// the random rules are mirrored, see datagen.RandomInstance).
func TestEngineMatchesNaiveOracle(t *testing.T) {
	reg := mlpred.DefaultRegistry()
	seeds := int64(60)
	if testing.Short() {
		seeds = 15
	}
	for seed := int64(0); seed < seeds; seed++ {
		d, rules, err := datagen.RandomInstance(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		naive, err := complexity.NaiveChase(d, rules, reg)
		if err != nil {
			t.Fatalf("seed %d: naive: %v", seed, err)
		}
		for _, mode := range []engineMode{
			modeDefault,
			modeNoMQO,
			modeDefault.with("interpreter", interpreted),
		} {
			eng := mode.engine(t, d, rules, reg)
			eng.Run()
			for i := 0; i < d.Size(); i++ {
				for j := i + 1; j < d.Size(); j++ {
					a, b := relation.TID(i), relation.TID(j)
					if eng.Same(a, b) != naive.Same(a, b) {
						t.Fatalf("seed %d mode %s: engine and oracle disagree on (%d,%d): engine=%v oracle=%v\nrules:\n%s",
							seed, mode, i, j, eng.Same(a, b), naive.Same(a, b), rulesOf(rules))
					}
				}
			}
		}
	}
}

// TestParallelMatchesNaiveOracle extends the cross-validation to the
// parallel BSP engine with random worker counts.
func TestParallelMatchesNaiveOracle(t *testing.T) {
	reg := mlpred.DefaultRegistry()
	seeds := int64(30)
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(100); seed < 100+seeds; seed++ {
		d, rules, err := datagen.RandomInstance(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		naive, err := complexity.NaiveChase(d, rules, reg)
		if err != nil {
			t.Fatalf("seed %d: naive: %v", seed, err)
		}
		workers := 2 + int(seed%5)
		res, err := dmatch.Run(d, rules, reg, dmatch.Options{Workers: workers})
		if err != nil {
			t.Fatalf("seed %d: dmatch: %v", seed, err)
		}
		for i := 0; i < d.Size(); i++ {
			for j := i + 1; j < d.Size(); j++ {
				a, b := relation.TID(i), relation.TID(j)
				if res.Same(a, b) != naive.Same(a, b) {
					t.Fatalf("seed %d n=%d: parallel and oracle disagree on (%d,%d)\nrules:\n%s",
						seed, workers, i, j, rulesOf(rules))
				}
			}
		}
	}
}

func rulesOf(rules []*rule.Rule) string {
	out := ""
	for _, r := range rules {
		out += r.String() + "\n"
	}
	return out
}
