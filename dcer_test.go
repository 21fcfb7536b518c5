package dcer_test

import (
	"testing"

	"dcer"
	"dcer/internal/datagen"
)

// TestPublicAPIQuickstart exercises the README quick-start end to end
// through the public facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	db := dcer.MustDatabase(
		dcer.MustSchema("Customers", "cno",
			dcer.Attr("cno", dcer.TypeString),
			dcer.Attr("name", dcer.TypeString),
			dcer.Attr("phone", dcer.TypeString)))
	d := dcer.NewDataset(db)
	t1 := d.MustAppend("Customers", dcer.S("c1"), dcer.S("Ford Smith"), dcer.S("555"))
	t2 := d.MustAppend("Customers", dcer.S("c2"), dcer.S("F. Smith"), dcer.S("555"))
	t3 := d.MustAppend("Customers", dcer.S("c3"), dcer.S("Jane Doe"), dcer.S("777"))

	rules, err := dcer.ParseRules(`
	    r1: Customers(a) ^ Customers(b) ^ a.phone = b.phone ^
	        nameabbrev(a.name, b.name) -> a.id = b.id`, db)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := dcer.Match(d, rules, dcer.DefaultClassifiers())
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Same(t1.GID, t2.GID) {
		t.Error("c1 and c2 should match")
	}
	if eng.Same(t1.GID, t3.GID) {
		t.Error("c1 and c3 should not match")
	}
	classes := eng.Classes()
	if len(classes) != 1 || len(classes[0]) != 2 {
		t.Errorf("Classes = %v", classes)
	}
}

// TestPublicAPIParallel exercises MatchParallel and the evaluation
// helpers through the facade.
func TestPublicAPIParallel(t *testing.T) {
	db := dcer.MustDatabase(
		dcer.MustSchema("R", "k",
			dcer.Attr("k", dcer.TypeString),
			dcer.Attr("v", dcer.TypeString)))
	d := dcer.NewDataset(db)
	var truthPairs [][2]dcer.TID
	for i := 0; i < 30; i++ {
		a := d.MustAppend("R", dcer.S(k(i, "a")), dcer.S(k(i, "val")))
		b := d.MustAppend("R", dcer.S(k(i, "b")), dcer.S(k(i, "val")))
		truthPairs = append(truthPairs, [2]dcer.TID{a.GID, b.GID})
	}
	rules, err := dcer.ParseRules(`r: R(a) ^ R(b) ^ a.v = b.v -> a.id = b.id`, db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dcer.MatchParallel(d, rules, dcer.DefaultClassifiers(),
		dcer.ParallelOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := dcer.EvaluateClasses(res.Classes(), dcer.NewTruth(truthPairs))
	if m.F1 != 1 {
		t.Errorf("parallel facade run: %s", m)
	}
}

// TestPublicAPISoft exercises the soft extension through the facade.
func TestPublicAPISoft(t *testing.T) {
	db := dcer.MustDatabase(
		dcer.MustSchema("R", "k",
			dcer.Attr("k", dcer.TypeString),
			dcer.Attr("v", dcer.TypeString)))
	d := dcer.NewDataset(db)
	a := d.MustAppend("R", dcer.S("k1"), dcer.S("x"))
	b := d.MustAppend("R", dcer.S("k2"), dcer.S("x"))
	rules, err := dcer.ParseRules(`r: R(a) ^ R(b) ^ a.v = b.v -> a.id = b.id`, db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dcer.MatchSoft(d, []dcer.SoftRule{{Rule: rules[0], Confidence: 0.7}},
		dcer.DefaultClassifiers(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if p := res.P(a.GID, b.GID); p != 0.7 {
		t.Errorf("soft score = %v, want 0.7", p)
	}
}

func k(i int, suffix string) string {
	return suffix + string(rune('A'+i%26)) + string(rune('a'+i/26))
}

// TestPublicAPIMineRules runs the paper's rule-acquisition loop (Section
// VI) through the facade only: mine rules from labeled pairs, parse each
// mined rule's text back as a user would from a rule file, and match with
// the result. A labeled positive that a mined rule covers must come out
// matched — every rule covers at least its Support of them.
func TestPublicAPIMineRules(t *testing.T) {
	g := datagen.IMDBLike(400, 0.3, 21)
	pairs := make([]dcer.MinerPair, len(g.LabeledPairs))
	positives := 0
	for i, p := range g.LabeledPairs {
		pairs[i] = dcer.MinerPair{A: p.A, B: p.B, Match: p.Match}
		if p.Match {
			positives++
		}
	}
	reg := dcer.DefaultClassifiers()
	mined, err := dcer.MineRules(g.D, pairs, reg, dcer.MineOptions{Relation: "movie"})
	if err != nil {
		t.Fatal(err)
	}
	if len(mined) == 0 {
		t.Fatal("no rules mined")
	}
	var rules []*dcer.Rule
	covered := 0
	for _, m := range mined {
		parsed, err := dcer.ParseRules(m.Text, g.D.DB)
		if err != nil || len(parsed) != 1 {
			t.Fatalf("mined rule text does not parse back to one rule (%v):\n%s", err, m.Text)
		}
		rules = append(rules, parsed[0])
		covered = max(covered, m.Support)
	}
	eng, err := dcer.Match(g.D, rules, reg)
	if err != nil {
		t.Fatal(err)
	}
	matched := 0
	for _, p := range pairs {
		if p.Match && eng.Same(p.A, p.B) {
			matched++
		}
	}
	t.Logf("%d rules; %d of %d labeled positives matched, widest rule covers %d", len(mined), matched, positives, covered)
	if matched < covered {
		t.Errorf("%d labeled positives matched, but one mined rule alone covers %d", matched, covered)
	}
	if m := dcer.EvaluateClasses(eng.Classes(), dcer.NewTruth(g.Truth)); m.F1 < 0.85 {
		t.Errorf("matching with the mined rules: %s, want F1 ≥ 0.85", m)
	}
}
