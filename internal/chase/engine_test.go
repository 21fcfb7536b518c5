package chase_test

import (
	"testing"

	"dcer/internal/chase"
	"dcer/internal/datagen"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

func smallEngine(t *testing.T, opts chase.Options) (*chase.Engine, *relation.Dataset) {
	t.Helper()
	d, _ := datagen.PaperExample()
	rules, err := datagen.PaperRules(d.DB)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := chase.New(d, rules, mlpred.DefaultRegistry(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng, d
}

func TestEngineStats(t *testing.T) {
	eng, _ := smallEngine(t, chase.Options{ShareIndexes: true})
	eng.Run()
	st := eng.Stats()
	if st.Valuations == 0 || st.Extensions == 0 {
		t.Error("no enumeration work recorded")
	}
	if st.MatchesFound != 4 {
		t.Errorf("MatchesFound = %d, want 4 (t2-t3, t12-t13, t9-t10, t1-t3)", st.MatchesFound)
	}
	if st.MLValidated != 6 {
		t.Errorf("MLValidated = %d, want 6 (3 unordered M4 pairs, both orders)", st.MLValidated)
	}
	if st.IndexBuilds == 0 {
		t.Error("no indexes built")
	}
	if st.MLCacheMiss == 0 {
		t.Error("no ML calls recorded")
	}
}

func TestEngineValidatedLookup(t *testing.T) {
	eng, d := smallEngine(t, chase.Options{ShareIndexes: true})
	eng.Run()
	g := eng.Gamma()
	if len(g.Validated) == 0 {
		t.Fatal("no validated predictions")
	}
	f := g.Validated[0]
	if !eng.Validated(f.Model, f.A, f.B) {
		t.Error("Validated() misses a validated fact")
	}
	if eng.Validated("nosuch", f.A, f.B) {
		t.Error("Validated() invents facts")
	}
	_ = d
}

// TestIncDeduceExternalFacts drives the engine the way the parallel master
// does: facts deduced "elsewhere" arrive as external updates and must
// trigger local deep deductions, and must not be echoed back in the delta.
func TestIncDeduceExternalFacts(t *testing.T) {
	src, labels := datagen.PaperExample()
	// This worker hosts every tuple but lacks φ2, so it cannot derive the
	// product match (t12,t13) itself — the match arrives from another
	// worker as an external fact and must trigger the deep φ4 deduction.
	all, err := datagen.PaperRules(src.DB)
	if err != nil {
		t.Fatal(err)
	}
	var rules []*rule.Rule
	for _, r := range all {
		if r.Name != "phi2" {
			rules = append(rules, r)
		}
	}
	eng, err := chase.New(src, rules, mlpred.DefaultRegistry(),
		chase.Options{ShareIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	eng.Deduce()
	if eng.Same(labels["t1"].GID, labels["t3"].GID) {
		t.Fatal("(t1,t3) should not be derivable without the product match")
	}
	// The product match (t12,t13) arrives from another worker.
	ext := []chase.Fact{chase.MatchFact(labels["t12"].GID, labels["t13"].GID)}
	delta := eng.IncDeduce(ext)
	if !eng.Same(labels["t1"].GID, labels["t3"].GID) {
		t.Error("external product match did not trigger the deep deduction")
	}
	for _, f := range delta {
		if f == ext[0] {
			t.Error("external fact echoed back in the delta")
		}
	}
	// Repeating the same external fact must be a no-op.
	if again := eng.IncDeduce(ext); len(again) != 0 {
		t.Errorf("replayed external fact produced %d new facts", len(again))
	}
}

// TestScopedEngineRestrictsRules checks NewScoped: a rule scoped away from
// the matching tuples must not fire, while an unscoped one does.
func TestScopedEngineRestrictsRules(t *testing.T) {
	str := relation.TypeString
	db := relation.MustDatabase(relation.MustSchema("A", "k",
		relation.Attribute{Name: "k", Type: str},
		relation.Attribute{Name: "x", Type: str}))
	d := relation.NewDataset(db)
	t0 := d.MustAppend("A", relation.S("k0"), relation.S("same"))
	t1 := d.MustAppend("A", relation.S("k1"), relation.S("same"))
	t2 := d.MustAppend("A", relation.S("k2"), relation.S("same"))
	rules, err := rule.ParseResolved(`r: A(a) ^ A(b) ^ a.x = b.x -> a.id = b.id`, db)
	if err != nil {
		t.Fatal(err)
	}
	scope := d.Fragment([]relation.TID{t0.GID, t1.GID})
	eng, err := chase.NewScoped(d, rules, []*relation.Dataset{scope},
		mlpred.DefaultRegistry(), chase.Options{ShareIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !eng.Same(t0.GID, t1.GID) {
		t.Error("in-scope pair not matched")
	}
	if eng.Same(t0.GID, t2.GID) {
		t.Error("out-of-scope tuple matched")
	}
}

// TestBuildEquivalenceMatchesEngine: the E_id that provenance proofs and
// the DMatch master start from (BuildEquivalence) is the one a fresh
// engine pre-merges, on every pair of ids, over a dataset whose relations
// repeat literal ids — within a relation, where they merge, and across
// relations, where they do not — and over a fragment of it.
func TestBuildEquivalenceMatchesEngine(t *testing.T) {
	str := relation.Attribute{Name: "k", Type: relation.TypeString}
	num := relation.Attribute{Name: "n", Type: relation.TypeInt}
	db := relation.MustDatabase(
		relation.MustSchema("A", "k", str, num),
		relation.MustSchema("B", "k", str, num),
	)
	d := relation.NewDataset(db)
	for i := range 40 {
		d.MustAppend("A", relation.S(string(rune('a'+i%7))), relation.I(int64(i)))
		d.MustAppend("B", relation.S(string(rune('a'+i%5))), relation.I(int64(i%6)))
	}
	var odd []relation.TID
	for g := 1; g < d.Size(); g += 3 {
		odd = append(odd, relation.TID(g))
	}
	for _, c := range []struct {
		name string
		d    *relation.Dataset
	}{{"root", d}, {"fragment", d.Fragment(odd)}} {
		eng, err := chase.New(c.d, nil, mlpred.DefaultRegistry(), chase.Options{ShareIndexes: true})
		if err != nil {
			t.Fatal(err)
		}
		uf := chase.BuildEquivalence(c.d)
		merged := 0
		for a := range c.d.IDSpace() {
			for b := a + 1; b < c.d.IDSpace(); b++ {
				same := uf.Same(a, b)
				if same != eng.Same(relation.TID(a), relation.TID(b)) {
					t.Fatalf("%s: BuildEquivalence says %v for (%d,%d), the engine the opposite", c.name, same, a, b)
				}
				if same {
					merged++
				}
			}
		}
		if merged == 0 {
			t.Fatalf("%s: no literal id duplicates merged", c.name)
		}
	}
}
