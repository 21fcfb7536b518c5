package chase_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"dcer/internal/chase"
	"dcer/internal/datagen"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

// runPaperExample chases Tables I-IV with φ1..φ5 and returns the engine
// and the tuple labels.
func runPaperExample(t *testing.T, opts chase.Options) (*chase.Engine, map[string]*relation.Tuple) {
	t.Helper()
	d, labels := datagen.PaperExample()
	rules, err := datagen.PaperRules(d.DB)
	if err != nil {
		t.Fatalf("PaperRules: %v", err)
	}
	eng, err := chase.New(d, rules, mlpred.DefaultRegistry(), opts)
	if err != nil {
		t.Fatalf("chase.New: %v", err)
	}
	eng.Run()
	return eng, labels
}

// TestPaperExampleMatches reproduces the end-to-end deduction of
// Examples 1-3: Γ must contain exactly the matches
// (t1,t3), (t2,t3), (t9,t10), (t12,t13) plus the transitive (t1,t2),
// with (t1,t3) only derivable deeply from the φ2 and φ3 matches.
func TestPaperExampleMatches(t *testing.T) {
	eng, l := runPaperExample(t, chase.Options{ShareIndexes: true})

	mustMatch := [][2]string{
		{"t1", "t2"}, {"t1", "t3"}, {"t2", "t3"}, // customers c1=c2=c3
		{"t9", "t10"},  // shops s4=s5
		{"t12", "t13"}, // products p2=p3
	}
	for _, p := range mustMatch {
		if !eng.Same(l[p[0]].GID, l[p[1]].GID) {
			t.Errorf("expected %s and %s matched", p[0], p[1])
		}
	}
	mustNot := [][2]string{
		{"t1", "t4"}, {"t4", "t5"}, {"t6", "t7"}, {"t11", "t12"},
		{"t12", "t14"}, {"t9", "t6"}, {"t15", "t16"},
	}
	for _, p := range mustNot {
		if eng.Same(l[p[0]].GID, l[p[1]].GID) {
			t.Errorf("unexpected match between %s and %s", p[0], p[1])
		}
	}

	// Exactly three non-singleton entities: {t1,t2,t3}, {t9,t10}, {t12,t13}.
	classes := eng.Classes()
	if len(classes) != 3 {
		t.Fatalf("got %d non-singleton classes, want 3: %v", len(classes), classes)
	}
	sizes := []int{}
	for _, c := range classes {
		sizes = append(sizes, len(c))
	}
	sort.Ints(sizes)
	if sizes[0] != 2 || sizes[1] != 2 || sizes[2] != 3 {
		t.Errorf("class sizes = %v, want [2 2 3]", sizes)
	}
}

// TestPaperExampleValidatedML checks Γ_M of Example 3: φ5 validates
// M4 = jaccard05 on preferences exactly for the customer pairs that bought
// the same item: (t1,t3), (t1,t4), (t3,t4) — as unordered pairs.
func TestPaperExampleValidatedML(t *testing.T) {
	eng, l := runPaperExample(t, chase.Options{ShareIndexes: true})
	g := eng.Gamma()
	pairs := map[[2]relation.TID]bool{}
	for _, f := range g.Validated {
		if f.Model != "jaccard05" {
			continue
		}
		a, b := f.A, f.B
		if b < a {
			a, b = b, a
		}
		pairs[[2]relation.TID{a, b}] = true
	}
	want := [][2]string{{"t1", "t3"}, {"t1", "t4"}, {"t3", "t4"}}
	if len(pairs) != len(want) {
		t.Errorf("got %d distinct validated M4 pairs, want %d: %v", len(pairs), len(want), pairs)
	}
	for _, w := range want {
		a, b := l[w[0]].GID, l[w[1]].GID
		if b < a {
			a, b = b, a
		}
		if !pairs[[2]relation.TID{a, b}] {
			t.Errorf("missing validated M4(%s, %s)", w[0], w[1])
		}
	}
}

// TestPaperExampleDeepDependency verifies the deduction is genuinely deep:
// without φ2 and φ3 (whose matches feed φ4's id preconditions), customers
// t1 and t3 must NOT match.
func TestPaperExampleDeepDependency(t *testing.T) {
	d, l := datagen.PaperExample()
	rules, err := datagen.PaperRules(d.DB)
	if err != nil {
		t.Fatal(err)
	}
	var pruned = rules[:0:0]
	for _, r := range rules {
		if r.Name != "phi2" && r.Name != "phi3" {
			pruned = append(pruned, r)
		}
	}
	eng, err := chase.New(d, pruned, mlpred.DefaultRegistry(), chase.Options{ShareIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if eng.Same(l["t1"].GID, l["t3"].GID) {
		t.Error("t1,t3 matched without the φ2/φ3 prerequisites; deduction is not deep")
	}
	if !eng.Same(l["t2"].GID, l["t3"].GID) {
		t.Error("t2,t3 should still match via φ1 alone")
	}
}

// TestPaperExampleNoMQO verifies the DMatch_noMQO configuration (no index
// or ML-cache sharing) reaches the same fixpoint.
func TestPaperExampleNoMQO(t *testing.T) {
	shared, l := runPaperExample(t, chase.Options{ShareIndexes: true})
	private, _ := runPaperExample(t, chase.Options{ShareIndexes: false})
	for _, a := range []string{"t1", "t2", "t3", "t9", "t10", "t12", "t13"} {
		for _, b := range []string{"t1", "t2", "t3", "t9", "t10", "t12", "t13"} {
			if shared.Same(l[a].GID, l[b].GID) != private.Same(l[a].GID, l[b].GID) {
				t.Errorf("MQO and noMQO disagree on (%s,%s)", a, b)
			}
		}
	}
}

// TestChurchRosserRuleOrder checks Corollary 1 on the running example: any
// rule application order converges to the same Γ (same equivalence classes
// and same set of validated predictions).
func TestChurchRosserRuleOrder(t *testing.T) {
	perms := [][]int{
		{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}, {3, 4, 0, 2, 1},
	}
	var baseline string
	for pi, perm := range perms {
		d, _ := datagen.PaperExample()
		rules, err := datagen.PaperRules(d.DB)
		if err != nil {
			t.Fatal(err)
		}
		permuted := make([]*rule.Rule, len(rules))
		for i, j := range perm {
			permuted[i] = rules[j]
		}
		eng, err := chase.New(d, permuted, mlpred.DefaultRegistry(), chase.Options{ShareIndexes: true})
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		sig := gammaSignature(eng)
		if pi == 0 {
			baseline = sig
		} else if sig != baseline {
			t.Errorf("perm %v converged to a different Γ:\n%s\nvs baseline\n%s", perm, sig, baseline)
		}
	}
}

// gammaSignature canonicalizes an engine's fixpoint: sorted equivalence
// classes plus the sorted set of unordered validated-prediction pairs.
func gammaSignature(eng *chase.Engine) string {
	classes := eng.Classes()
	var classStrs []string
	for _, c := range classes {
		ids := make([]int, len(c))
		for i, x := range c {
			ids[i] = int(x)
		}
		sort.Ints(ids)
		classStrs = append(classStrs, fmt.Sprint(ids))
	}
	sort.Strings(classStrs)
	var vals []string
	for _, f := range eng.Gamma().Validated {
		a, b := f.A, f.B
		if b < a {
			a, b = b, a
		}
		vals = append(vals, fmt.Sprintf("%s(%d,%d)", f.Model, a, b))
	}
	sort.Strings(vals)
	vals = dedupeStrings(vals)
	return strings.Join(classStrs, ";") + "|" + strings.Join(vals, ";")
}

func dedupeStrings(ss []string) []string {
	out := ss[:0]
	for i, s := range ss {
		if i == 0 || s != ss[i-1] {
			out = append(out, s)
		}
	}
	return out
}
