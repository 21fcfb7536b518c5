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

// The test-only engine switches (export_test.go): the rule interpreter in
// place of the compiled plans, and the drain forced through the buffered
// fan-out on every batch or on none, whatever GOMAXPROCS is.
func interpreted(e *chase.Engine)  { e.SetInterpretRules(true) }
func batchedDrain(e *chase.Engine) { e.SetDrainParallelMin(1) }
func liveDrain(e *chase.Engine)    { e.SetDrainParallelMin(chase.NeverFanOut) }

// engineMode is one cell of the Γ-identity matrix: the public options plus
// the test-only switches applied before the engine first runs.
type engineMode struct {
	name     string
	opts     chase.Options
	switches []func(*chase.Engine)
}

func (m engineMode) String() string { return m.name }

// as returns the mode under another name.
func (m engineMode) as(name string) engineMode { m.name = name; return m }

// with returns the mode with more switches applied after its own.
func (m engineMode) with(name string, sw ...func(*chase.Engine)) engineMode {
	return engineMode{m.name + "/" + name, m.opts, append(m.switches[:len(m.switches):len(m.switches)], sw...)}
}

// engine builds a fresh engine over (d, rules) in the mode.
func (m engineMode) engine(t testing.TB, d *relation.Dataset, rules []*rule.Rule, reg *mlpred.Registry) *chase.Engine {
	t.Helper()
	eng, err := chase.New(d, rules, reg, m.opts)
	if err != nil {
		t.Fatalf("mode %s: %v", m.name, err)
	}
	for _, sw := range m.switches {
		sw(eng)
	}
	return eng
}

// The modes the Γ oracles cover: Deduce's first pass on the pool over the
// live drain (what a one-processor host and small batches run), and over a
// drain with every batch fanned out. modeDefault leaves the drain to the
// engine, so what it covers depends on GOMAXPROCS.
var (
	modeLive    = engineMode{"conc/live-drain", chase.Options{ShareIndexes: true}, []func(*chase.Engine){liveDrain}}
	modeBatched = engineMode{"conc/batched-drain", chase.Options{ShareIndexes: true}, []func(*chase.Engine){batchedDrain}}
	modeDefault = engineMode{"default", chase.Options{ShareIndexes: true}, nil}
)

// TestPlanGammaEquivalence is the compiled-plan determinism property: on
// random rules and datasets, Γ — the exact fact log, not just the final
// equivalence classes — must be byte-identical between the interpreter
// and the compiled plans, under the live and the forced batched drain, and
// the batched drain without shared indexes.
func TestPlanGammaEquivalence(t *testing.T) {
	reg := mlpred.DefaultRegistry()
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	modes := []engineMode{
		modeLive, modeBatched,
		{"noMQO", chase.Options{ShareIndexes: false}, modeBatched.switches},
	}
	for seed := int64(200); seed < 200+seeds; seed++ {
		d, rules, err := datagen.RandomInstance(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, m := range modes {
			want := m.with("interpreter", interpreted).engine(t, d, rules, reg).Run()
			if got := m.engine(t, d, rules, reg).Run(); !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d mode %s: Γ differs between interpreter and compiled plans\nrules:\n%s",
					seed, m.name, rulesOf(rules))
			}
		}
	}
}

// TestPlanDMatchEquivalence extends the property to the parallel BSP
// engine: for w ∈ {1, 4}, DMatch — whose worker engines run the compiled
// plans — must reach the classes and validated set of one engine under
// the interpreter (Proposition 8 composed with plan equivalence).
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
		oracle := modeDefault.with("interpreter", interpreted).engine(t, d, rules, reg)
		oracle.Run()
		wantClasses, wantValidated := canonClasses(oracle.Classes()), canonValidated(oracle.Gamma().Validated)
		for _, workers := range []int{1, 4} {
			res, err := dmatch.Run(d, rules, reg, dmatch.Options{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d w=%d: %v", seed, workers, err)
			}
			if canonClasses(res.Classes()) != wantClasses || canonValidated(res.Validated) != wantValidated {
				t.Fatalf("seed %d w=%d: DMatch over compiled plans diverges from the interpreter's Γ\nrules:\n%s",
					seed, workers, rulesOf(rules))
			}
		}
	}
}

// TestPlanProgramOrder pins the static program: over the TPCH and TFACC
// rule sets every variable's program reads constants, intra-tuple
// equalities, equalities to other variables, id predicates,
// similarity classifiers, then the other ML predicates — and it still
// reads the same after a Run and sixteen InsertTuples batches.
func TestPlanProgramOrder(t *testing.T) {
	reg := mlpred.DefaultRegistry()
	gens := []*datagen.Generated{
		datagen.TPCH(datagen.TPCHOptions{Scale: 0.2, Dup: 0.3, Seed: 1}),
		datagen.TFACC(datagen.TFACCOptions{Scale: 0.1, Dup: 0.3, Seed: 1}),
	}
	for _, g := range gens {
		rules, err := g.Rules()
		if err != nil {
			t.Fatal(err)
		}
		// step of each ML predicate's text: similarity classifiers first.
		mlStep := map[string]int{}
		for _, r := range rules {
			for i := range r.Body {
				if p := &r.Body[i]; p.Kind == rule.PredML {
					cl, err := reg.Get(p.Model)
					if err != nil {
						t.Fatal(err)
					}
					mlStep[p.String()] = 6
					if _, sim := cl.(*mlpred.SimClassifier); sim {
						mlStep[p.String()] = 5
					}
				}
			}
		}
		kindStep := map[string]int{"const": 1, "intra": 2, "eq": 3, "id": 4}
		var atNew []string
		eng := insertRun(t, g, modeDefault, 16, func(e *chase.Engine) {
			atNew = planPrograms(e.PlanReport())
			for _, rr := range e.PlanReport().Rules {
				for _, v := range rr.Vars {
					last := -1
					for _, p := range v.Preds {
						step, ok := kindStep[p.Kind]
						if p.Kind == "ml" {
							step, ok = mlStep[p.Pred]
						}
						if !ok || step < last {
							t.Errorf("rule %s var %s: step %s %q out of the static order in %+v", rr.Rule, v.Var, p.Kind, p.Pred, v.Preds)
						}
						last = step
					}
				}
			}
		}, nil)
		if got := planPrograms(eng.PlanReport()); !reflect.DeepEqual(got, atNew) {
			t.Errorf("programs after Run and 16 inserts:\n%q\nright after New:\n%q", got, atNew)
		}
	}
}

// planPrograms lists every step of rep as rule/var/kind/pred, in program
// order.
func planPrograms(rep chase.PlanReport) []string {
	var out []string
	for _, rr := range rep.Rules {
		for _, v := range rr.Vars {
			for _, p := range v.Preds {
				out = append(out, rr.Rule+"/"+v.Var+"/"+p.Kind+"/"+p.Pred)
			}
		}
	}
	return out
}

// TestPlanReportNeverShowsMoreFailsThanEvals polls PlanReport while every
// drain batch fans out across the pool, so snapshots race the writers'
// counter updates: no snapshot may show a step with more fails than
// evaluations. Run it under -race.
func TestPlanReportNeverShowsMoreFailsThanEvals(t *testing.T) {
	g := datagen.TFACC(datagen.TFACCOptions{Scale: 0.2, Dup: 0.3, Seed: 1})
	rules, err := g.Rules()
	if err != nil {
		t.Fatal(err)
	}
	eng := modeBatched.engine(t, g.D, rules, mlpred.DefaultRegistry())
	done := make(chan struct{})
	snapshots := make(chan int)
	go func() {
		n := 0
		defer func() { snapshots <- n }()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, rr := range eng.PlanReport().Rules {
				for _, v := range rr.Vars {
					for _, p := range v.Preds {
						if p.Fails > p.Evals || p.FailRate > 1 {
							t.Errorf("snapshot %d: rule %s var %s step %q: fails %d > evals %d", n, rr.Rule, v.Var, p.Pred, p.Fails, p.Evals)
							return
						}
					}
				}
			}
			n++
		}
	}()
	eng.Run()
	close(done)
	t.Logf("%d snapshots during the run", <-snapshots)
}
