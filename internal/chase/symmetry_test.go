package chase_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"dcer/internal/chase"
	"dcer/internal/complexity"
	"dcer/internal/datagen"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

// TestSymmetryReductionHalvesTPCH pins what the reduction buys on the
// benchmark's rule shapes: every TPCH rule is its own mirror image, so a
// chase of TPCH 0.5 inspects about half the valuations it did before the
// reduction, and resolves exactly the same entities. Both constants were
// recorded from the unreduced engine (commit 5e463c3), a concurrent first
// pass against frozen Γ and then the sequential drain. The engine's count
// is deterministic: every enumeration is a pool task against a frozen Γ.
func TestSymmetryReductionHalvesTPCH(t *testing.T) {
	const (
		unreducedValuations = 30704
		classesDigest       = "f32a1b8bae05ffc6"
	)
	g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.5, Dup: 0.3, Seed: 1})
	rules, err := g.Rules()
	if err != nil {
		t.Fatal(err)
	}
	e := modeDefault.engine(t, g.D, rules, mlpred.DefaultRegistry())
	e.Run()
	st := e.Stats()
	if st.SymmetricRules != len(rules) {
		t.Errorf("SymmetricRules = %d, want all %d TPCH rules reduced", st.SymmetricRules, len(rules))
	}
	if st.Valuations*100 > unreducedValuations*55 {
		t.Errorf("Valuations = %d, want at most 55%% of the unreduced %d", st.Valuations, unreducedValuations)
	}
	sum := sha256.Sum256([]byte(canonClasses(e.Classes())))
	if got := fmt.Sprintf("%x", sum[:8]); got != classesDigest {
		t.Errorf("classes digest = %s, want %s (Γ moved)", got, classesDigest)
	}

	// The reduction is a GID window on the head variable bound later: the
	// planned order of every rule names its bound on exactly that one step.
	for _, rr := range e.PlanReport().Rules {
		var bounded []string
		for _, st := range rr.Order {
			if st.Bound != "" {
				bounded = append(bounded, st.Var+": "+st.Bound)
			}
		}
		if len(bounded) != 1 {
			t.Errorf("rule %s: GID bound on steps %q, want exactly one step", rr.Rule, bounded)
		}
	}

	// TFACC's eight rules reduce as well (bind only; the chase itself is
	// covered by the oracle tests).
	tf := datagen.TFACC(datagen.TFACCOptions{Scale: 0.05, Dup: 0.3, Seed: 1})
	tfRules, err := tf.Rules()
	if err != nil {
		t.Fatal(err)
	}
	te, err := chase.New(tf.D, tfRules, mlpred.DefaultRegistry(), chase.Options{ShareIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := te.Stats().SymmetricRules; n != len(tfRules) {
		t.Errorf("TFACC SymmetricRules = %d, want %d", n, len(tfRules))
	}
}

// TestSymmetryLeavesDirectionalRulesAlone builds the case in which a
// mirror-shaped rule must NOT be reduced: its ML predicate's model is
// validated by another rule's head, and a validated prediction is
// directional. Here r1 validates lev080(t1, t0) only, so r2 holds for the
// valuation (a, b) = (t1, t0) and not for its twin (t0, t1); an engine
// that kept only the GID-ascending twin would miss the match. Opaque
// classifiers likewise declare no symmetry.
func TestSymmetryLeavesDirectionalRulesAlone(t *testing.T) {
	str := relation.TypeString
	a := func(n string) relation.Attribute { return relation.Attribute{Name: n, Type: str} }
	db := relation.MustDatabase(relation.MustSchema("P", "pk", a("pk"), a("x"), a("y"), a("ref")))
	d := relation.NewDataset(db)
	t0 := d.MustAppend("P", relation.S("p0"), relation.S("v"), relation.S("aaa"), relation.S("k"))
	t1 := d.MustAppend("P", relation.S("p1"), relation.S("u"), relation.S("zzz"), relation.S("k"))
	rules, err := rule.ParseResolved(`
r1: P(a) ^ P(b) ^ a.x = "u" ^ b.x = "v" -> lev080(a.y, b.y)
r2: P(a) ^ P(b) ^ a.ref = b.ref ^ lev080(a.y, b.y) -> a.id = b.id
`, db)
	if err != nil {
		t.Fatal(err)
	}
	reg := mlpred.DefaultRegistry()
	naive, err := complexity.NaiveChase(d, rules, reg)
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Same(t0.GID, t1.GID) {
		t.Fatal("oracle does not match t0 and t1: the instance no longer exercises a directional validation")
	}
	for _, mode := range []engineMode{modeDefault, modeDefault.with("interpreter", interpreted)} {
		e := mode.engine(t, d, rules, reg)
		e.Run()
		if n := e.Stats().SymmetricRules; n != 0 {
			t.Errorf("mode %s: SymmetricRules = %d, want 0 (r1 has an ML head, r2 a dynamic ML predicate)", mode, n)
		}
		if !e.Same(t0.GID, t1.GID) {
			t.Errorf("mode %s: t0 and t1 not matched", mode)
		}
	}

	// The same mirror-shaped rule over an opaque classifier: no declared
	// symmetry, no reduction, answers served through the pair cache.
	opaque := mlpred.NewRegistry()
	opaque.Register(&mlpred.Func{ClassifierName: "blackbox", Fn: func(l, r []relation.Value) bool {
		return l[0].Str < r[0].Str // deliberately order-dependent
	}})
	rules, err = rule.ParseResolved(`r: P(a) ^ P(b) ^ a.ref = b.ref ^ blackbox(a.y, b.y) -> a.id = b.id`+"\n", db)
	if err != nil {
		t.Fatal(err)
	}
	e, err := chase.New(d, rules, opaque, chase.Options{ShareIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	st := e.Stats()
	if st.SymmetricRules != 0 {
		t.Errorf("opaque classifier: SymmetricRules = %d, want 0", st.SymmetricRules)
	}
	if !e.Same(t0.GID, t1.GID) {
		t.Error("opaque classifier: t0 and t1 not matched (blackbox(aaa, zzz) holds)")
	}
	if st.MLCacheSize == 0 || st.MLCacheMiss == 0 {
		t.Errorf("opaque classifier: pair cache unused (size %d, invocations %d)", st.MLCacheSize, st.MLCacheMiss)
	}
	if st.FeatEntries != 0 {
		t.Errorf("opaque classifier: %d feature bundles built, want 0", st.FeatEntries)
	}
}
