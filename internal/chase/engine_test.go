package chase_test

import (
	"testing"

	"dcer/internal/chase"
	"dcer/internal/datagen"
	"dcer/internal/hypart"
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

// TestScopedEngineRestrictsRules checks NewScoped: an engine derives the
// valuations of the cells it owns and no others. The rule's cube has one
// dimension of extent 2, hashing the joined attribute x, so the pair
// agreeing on "same" lies in one cell and the pair agreeing on "other" in
// the other.
func TestScopedEngineRestrictsRules(t *testing.T) {
	str := relation.TypeString
	db := relation.MustDatabase(relation.MustSchema("A", "k",
		relation.Attribute{Name: "k", Type: str},
		relation.Attribute{Name: "x", Type: str}))
	d := relation.NewDataset(db)
	t0 := d.MustAppend("A", relation.S("k0"), relation.S("same"))
	t1 := d.MustAppend("A", relation.S("k1"), relation.S("same"))
	t2 := d.MustAppend("A", relation.S("k2"), relation.S("other"))
	t3 := d.MustAppend("A", relation.S("k3"), relation.S("other"))
	rules, err := rule.ParseResolved(`r: A(a) ^ A(b) ^ a.x = b.x -> a.id = b.id`, db)
	if err != nil {
		t.Fatal(err)
	}
	bucket := []int32{0, 0, 1, 1} // by row: the cell bit the x of each tuple fixes
	cube := &hypart.Cube{
		Dims: []hypart.Dim{{Extent: 2, Stride: 1}},
		Vars: []hypart.VarCells{{Dims: []int{0}, Attrs: []int{1}, Mask: 1, Cells: bucket}, {Dims: []int{0}, Attrs: []int{1}, Mask: 1, Cells: bucket}},
	}
	for _, c := range []struct {
		owned      uint64
		same, othr bool
	}{{0b01, true, false}, {0b10, false, true}, {0b11, true, true}, {0, false, false}} {
		eng, err := chase.NewScoped(d, rules, []chase.Cells{{Cube: cube, Owned: []uint64{c.owned}}}, nil,
			mlpred.DefaultRegistry(), chase.Options{ShareIndexes: true})
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if eng.Same(t0.GID, t1.GID) != c.same || eng.Same(t2.GID, t3.GID) != c.othr {
			t.Errorf("cells %02b: matched the \"same\" pair %v and the \"other\" pair %v, want %v and %v",
				c.owned, eng.Same(t0.GID, t1.GID), eng.Same(t2.GID, t3.GID), c.same, c.othr)
		}
		if eng.Same(t0.GID, t2.GID) {
			t.Errorf("cells %02b: matched tuples that disagree on x", c.owned)
		}
	}
	if _, err := chase.NewScoped(d, rules, []chase.Cells{{Cube: cube, Owned: nil}}, nil, mlpred.DefaultRegistry(), chase.Options{}); err == nil {
		t.Error("a bitmap narrower than the cube: no error")
	}
}

// TestBuildEquivalenceMatchesEngine: the E_id that provenance proofs and
// the DMatch master start from (BuildEquivalence) is the one a fresh
// engine pre-merges, on every pair of ids, over a dataset whose relations
// repeat literal ids — within a relation, where they merge, and across
// relations, where they do not.
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
	eng, err := chase.New(d, nil, mlpred.DefaultRegistry(), chase.Options{ShareIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	uf := chase.BuildEquivalence(d)
	merged := 0
	for a := range d.Size() {
		for b := a + 1; b < d.Size(); b++ {
			same := uf.Same(a, b)
			if same != eng.Same(relation.TID(a), relation.TID(b)) {
				t.Fatalf("BuildEquivalence says %v for (%d,%d), the engine the opposite", same, a, b)
			}
			if same {
				merged++
			}
		}
	}
	if merged == 0 {
		t.Fatal("no literal id duplicates merged")
	}
}
