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
// place of the compiled plans, an adaptive re-sort at every round
// boundary, and the drain forced through the buffered fan-out on every
// batch or on none, whatever GOMAXPROCS is.
func interpreted(e *chase.Engine)  { e.SetInterpretRules(true) }
func eagerResort(e *chase.Engine)  { e.SetPlanResortMinEvals(1) }
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

// The modes the Γ oracles cover: the sequential engine, concurrent Deduce
// over the live drain (what a one-processor host and small batches run),
// and concurrent Deduce with every drain batch fanned out. modeDefault
// leaves the drain to the engine, so what it covers depends on GOMAXPROCS.
var (
	modeSeq     = engineMode{"seq", chase.Options{ShareIndexes: true, SequentialDeduce: true}, nil}
	modeLive    = engineMode{"conc/live-drain", chase.Options{ShareIndexes: true}, []func(*chase.Engine){liveDrain}}
	modeBatched = engineMode{"conc/batched-drain", chase.Options{ShareIndexes: true}, []func(*chase.Engine){batchedDrain}}
	modeDefault = engineMode{"default", chase.Options{ShareIndexes: true}, nil}
)

// TestPlanGammaEquivalence is the compiled-plan determinism property: on
// random rules and datasets, Γ — the exact fact log, not just the final
// equivalence classes — must be byte-identical between the interpreter
// and the compiled plans, under the sequential engine, the default and
// the forced batched drain, with and without aggressive adaptive
// reordering (a re-sort at every round boundary).
func TestPlanGammaEquivalence(t *testing.T) {
	reg := mlpred.DefaultRegistry()
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	modes := []engineMode{
		modeSeq, modeLive, modeBatched,
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
			if got := m.with("eager-resort", eagerResort).engine(t, d, rules, reg).Run(); !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d mode %s: Γ differs under per-round adaptive reordering\nrules:\n%s",
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

	interp := modeDefault.with("interpreter", interpreted).engine(t, build(), rules, reg)
	want := interp.Run()

	eng := modeDefault.with("eager-resort", eagerResort).engine(t, build(), rules, reg)
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
