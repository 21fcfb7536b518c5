package rule_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dcer/internal/datagen"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

func paperDB() *relation.Database { return datagen.PaperSchemas() }

func TestParseBasics(t *testing.T) {
	rules, err := rule.Parse(`
phi1: Customers(t) ^ Customers(s) ^ t.name = s.name -> t.id = s.id
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 {
		t.Fatalf("got %d rules", len(rules))
	}
	r := rules[0]
	if r.Name != "phi1" || len(r.Vars) != 2 || len(r.Body) != 1 {
		t.Errorf("parsed shape wrong: %+v", r)
	}
	if r.Body[0].Kind != rule.PredEq {
		t.Errorf("body kind = %v", r.Body[0].Kind)
	}
	if r.Head.Kind != rule.PredID {
		t.Errorf("head kind = %v", r.Head.Kind)
	}
}

func TestParseSeparatorsAndComments(t *testing.T) {
	for _, src := range []string{
		`r: A(a) ^ A(b) ^ a.x = b.x -> a.id = b.id`,
		`r: A(a) && A(b) && a.x = b.x -> a.id = b.id`,
		`r: A(a) , A(b) , a.x = b.x -> a.id = b.id`,
		"# leading comment\nr: A(a) ^ A(b) ^\n   a.x = b.x # trailing comment\n   -> a.id = b.id\n",
	} {
		rules, err := rule.Parse(src)
		if err != nil {
			t.Errorf("%q: %v", src, err)
			continue
		}
		if len(rules) != 1 || len(rules[0].Body) != 1 {
			t.Errorf("%q: wrong shape", src)
		}
	}
}

func TestParseMLForms(t *testing.T) {
	rules, err := rule.Parse(`
a: P(p) ^ P(q) ^ m1(p.x, q.x) -> p.id = q.id
b: P(p) ^ P(q) ^ m2(p[x,y], q[x,y]) -> m3(p.x, q.x)
`)
	if err != nil {
		t.Fatal(err)
	}
	if rules[0].Body[0].Kind != rule.PredML || rules[0].Body[0].Model != "m1" {
		t.Error("single-attr ML atom mis-parsed")
	}
	if got := rules[1].Body[0].A1VecNames; len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Errorf("vector ML atom attrs = %v", got)
	}
	if rules[1].Head.Kind != rule.PredML || rules[1].Head.Model != "m3" {
		t.Error("ML head mis-parsed")
	}
}

func TestParseConstants(t *testing.T) {
	rules, err := rule.Parse(`
r: A(a) ^ A(b) ^ a.seg = "BUILDING" ^ a.n = 42 ^ a.f = -1.5 -> a.id = b.id
`)
	if err != nil {
		t.Fatal(err)
	}
	body := rules[0].Body
	if body[0].Kind != rule.PredConst || body[0].ConstText != "BUILDING" {
		t.Errorf("string const: %+v", body[0])
	}
	if body[1].ConstText != "42" || body[2].ConstText != "-1.5" {
		t.Errorf("numeric consts: %+v %+v", body[1], body[2])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`r: -> a.id = b.id`,                      // no atoms
		`r: A(a) ^ a.x = `,                       // dangling
		`r: A(a) ^ A(b) ^ a.x = b.x`,             // no head
		`r: A(a) ^ A(b) ^ a.x = b.x -> A(c)`,     // relation atom head
		`r: A(a) ^ A(b) ^ "x" -> a.id = b.id`,    // stray literal
		`r: A(a) ^ m(a.x) -> a.id = a.id`,        // unary ML atom
		`r: A(a ^ A(b) ^ a.x=b.x -> a.id = b.id`, // unbalanced paren
		`r: A(a) ^ A(b) ^ a.x = b.x -> a.id $ b`, // junk
		"r: A(a) ^ A(b) ^ a.x = b.x -> a.id = b.id trailing",
	}
	for _, src := range bad {
		if _, err := rule.Parse(src); err == nil {
			t.Errorf("accepted bad rule %q", src)
		}
	}
}

func TestParseMultipleRules(t *testing.T) {
	rules, err := rule.Parse(`
r1: A(a) ^ A(b) ^ a.x = b.x -> a.id = b.id
r2: B(c) ^ B(d) ^ c.y = d.y -> c.id = d.id

r3: C(e) ^ C(f) ^
    e.z = f.z
    -> e.id = f.id
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("got %d rules, want 3", len(rules))
	}
	for i, want := range []string{"r1", "r2", "r3"} {
		if rules[i].Name != want {
			t.Errorf("rule %d name = %q", i, rules[i].Name)
		}
	}
}

func TestResolveErrors(t *testing.T) {
	db := paperDB()
	bad := map[string]string{
		"unknown relation":  `r: Nope(a) ^ Nope(b) ^ a.x = b.x -> a.id = b.id`,
		"unknown attribute": `r: Customers(a) ^ Customers(b) ^ a.bogus = b.name -> a.id = b.id`,
		"unbound variable":  `r: Customers(a) ^ Customers(b) ^ a.name = c.name -> a.id = b.id`,
		"type mismatch":     `r: Customers(a) ^ Customers(b) ^ jaccard05(a[name,phone], b.name) -> a.id = b.id`,
		"eq head":           `r: Customers(a) ^ Customers(b) ^ a.name = b.name -> a.phone = b.phone`,
	}
	for what, src := range bad {
		rules, err := rule.Parse(src)
		if err != nil {
			// "eq head" is fine to reject at parse time too.
			continue
		}
		if err := rules[0].Resolve(db); err == nil {
			t.Errorf("%s: resolved without error", what)
		}
	}
}

// TestCrossRelationID checks that id predicates may relate tuples of
// different relations (the paper's Example 4 matches R- and S-entities),
// as long as the id attributes are type-compatible.
func TestCrossRelationID(t *testing.T) {
	db := paperDB()
	if _, err := rule.ParseResolved(
		`r: Customers(a) ^ Products(p) ^ a.name = p.pname -> a.id = p.id`, db); err != nil {
		t.Errorf("cross-relation id rejected: %v", err)
	}
}

func TestResolveIDKeyword(t *testing.T) {
	db := paperDB()
	rules, err := rule.ParseResolved(
		`r: Customers(a) ^ Customers(b) ^ a.name = b.name -> a.id = b.id`, db)
	if err != nil {
		t.Fatal(err)
	}
	// ".id" resolves to the designated id attribute (cno, position 0).
	if rules[0].Head.A1 != 0 || rules[0].Head.A2 != 0 {
		t.Errorf("id attr positions = %d, %d", rules[0].Head.A1, rules[0].Head.A2)
	}
}

func TestStringRoundTrip(t *testing.T) {
	db := paperDB()
	rules, err := datagen.PaperRules(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		text := r.String()
		re, err := rule.Parse(text)
		if err != nil {
			t.Errorf("%s: re-parse of %q: %v", r.Name, text, err)
			continue
		}
		if err := re[0].Resolve(db); err != nil {
			t.Errorf("%s: re-resolve: %v", r.Name, err)
			continue
		}
		if re[0].String() != text {
			t.Errorf("%s: round trip drifted:\n%s\n%s", r.Name, text, re[0].String())
		}
	}
}

func TestClassify(t *testing.T) {
	db := paperDB()
	rules, err := datagen.PaperRules(db)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*rule.Rule{}
	for _, r := range rules {
		byName[r.Name] = r
	}
	cases := map[string]rule.Class{
		"phi1": {Deep: false, Collective: false, NumVars: 2, NumRels: 1},
		"phi2": {Deep: true, Collective: false, NumVars: 2, NumRels: 1}, // ML body predicate
		"phi3": {Deep: true, Collective: true, NumVars: 4, NumRels: 2},
		"phi4": {Deep: true, Collective: true, NumVars: 8, NumRels: 4},
		"phi5": {Deep: false, Collective: true, NumVars: 4, NumRels: 2},
	}
	for name, want := range cases {
		got := rule.Classify(byName[name])
		if got != want {
			t.Errorf("%s: Classify = %+v, want %+v", name, got, want)
		}
	}
	if rule.MaxVars(rules) != 8 {
		t.Errorf("MaxVars = %d, want 8", rule.MaxVars(rules))
	}
}

func TestFilters(t *testing.T) {
	db := paperDB()
	rules, err := datagen.PaperRules(db)
	if err != nil {
		t.Fatal(err)
	}
	coll := rule.FilterCollectiveOnly(rules)
	for _, r := range coll {
		for i := range r.Body {
			if r.Body[i].Kind == rule.PredID {
				t.Errorf("FilterCollectiveOnly kept deep rule %s", r.Name)
			}
		}
	}
	deep := rule.FilterDeepOnly(rules, 4)
	for _, r := range deep {
		if len(r.Vars) > 4 {
			t.Errorf("FilterDeepOnly kept wide rule %s (%d vars)", r.Name, len(r.Vars))
		}
	}
	// φ4 (8 vars) must be excluded from the deep-only set.
	for _, r := range deep {
		if r.Name == "phi4" {
			t.Error("phi4 kept in deep-only set")
		}
	}
}

func TestDistinctVars(t *testing.T) {
	db := paperDB()
	rules, err := rule.ParseResolved(`
r: Customers(a) ^ Customers(b) ^ a.name = b.name ^ a.phone = b.phone -> a.id = b.id
`, db)
	if err != nil {
		t.Fatal(err)
	}
	dvs, err := rule.DistinctVars(rules[0])
	if err != nil {
		t.Fatal(err)
	}
	// name class, phone class, a.id, b.id = 4 distinct variables.
	if len(dvs) != 4 {
		t.Fatalf("got %d distinct vars: %+v", len(dvs), dvs)
	}
	// The name class must contain both sides.
	if len(dvs[0].Members) != 2 {
		t.Errorf("first class members = %v", dvs[0].Members)
	}
	nID := 0
	for _, dv := range dvs {
		if dv.ID {
			nID++
			if len(dv.Members) != 1 {
				t.Errorf("id class has %d members", len(dv.Members))
			}
		}
	}
	if nID != 2 {
		t.Errorf("got %d id classes, want 2", nID)
	}
}

func TestDistinctVarsConstAndML(t *testing.T) {
	db := paperDB()
	rules, err := rule.ParseResolved(`
r: Customers(a) ^ Customers(b) ^ a.pref = "sports" ^ jaccard05(a.name, b.name) -> a.id = b.id
`, db)
	if err != nil {
		t.Fatal(err)
	}
	dvs, err := rule.DistinctVars(rules[0])
	if err != nil {
		t.Fatal(err)
	}
	var nConst, nML int
	for _, dv := range dvs {
		if dv.Const {
			nConst++
		}
		if dv.MLVec != nil {
			nML++
		}
	}
	if nConst != 1 {
		t.Errorf("const classes = %d, want 1", nConst)
	}
	if nML != 2 {
		t.Errorf("ML classes = %d, want 2 (one per side)", nML)
	}
}

func TestIsAcyclicPaperRules(t *testing.T) {
	db := paperDB()
	rules, err := datagen.PaperRules(db)
	if err != nil {
		t.Fatal(err)
	}
	// φ1, φ2, φ5 are chain/star joins; φ3 and φ4 contain genuine join
	// cycles (e.g. φ3: c—x via owner, x—y via email, y—d via owner,
	// d—c via phone), so the tractable case of Theorem 3 does not apply
	// to them.
	want := map[string]bool{
		"phi1": true, "phi2": true, "phi3": false, "phi4": false, "phi5": true,
	}
	for _, r := range rules {
		ok, err := rule.IsAcyclic(r)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		if ok != want[r.Name] {
			t.Errorf("%s: IsAcyclic = %v, want %v", r.Name, ok, want[r.Name])
		}
	}
}

func TestNumPredicates(t *testing.T) {
	rules := rule.MustParse(`r: A(a) ^ A(b) ^ a.x = b.x ^ a.y = b.y -> a.id = b.id`)
	if got := rules[0].NumPredicates(); got != 4 {
		t.Errorf("NumPredicates = %d, want 4", got)
	}
}

func TestSortByName(t *testing.T) {
	rules := rule.MustParse(`
b: A(a) ^ A(c) ^ a.x = c.x -> a.id = c.id
a: A(a) ^ A(c) ^ a.x = c.x -> a.id = c.id
`)
	rule.SortByName(rules)
	if rules[0].Name != "a" {
		t.Error("SortByName did not sort")
	}
}

func TestParseRejectsGarbageGracefully(t *testing.T) {
	if _, err := rule.Parse(strings.Repeat("@", 10)); err == nil {
		t.Error("garbage accepted")
	}
	if rules, err := rule.Parse("   \n\n  # only comments\n"); err != nil || len(rules) != 0 {
		t.Errorf("comment-only input: %v, %d rules", err, len(rules))
	}
}

// TestRandomRuleRoundTrip generates random (valid) rules, renders them
// with String and re-parses — the printer and parser must be inverses.
func TestRandomRuleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	rels := []string{"Customers", "Shops", "Products", "Orders"}
	attrs := map[string][]string{
		"Customers": {"cno", "name", "phone", "addr", "pref"},
		"Shops":     {"sno", "sname", "owner", "email", "loc"},
		"Products":  {"pno", "pname", "price", "desc"},
		"Orders":    {"ono", "buyer", "seller", "item", "IP"},
	}
	db := paperDB()
	for trial := 0; trial < 200; trial++ {
		nvars := 2 + rng.Intn(3)
		var vars []string
		var relOf []string
		var b strings.Builder
		fmt.Fprintf(&b, "t%d: ", trial)
		for v := 0; v < nvars; v++ {
			if v > 0 {
				b.WriteString(" ^ ")
			}
			rel := rels[rng.Intn(len(rels))]
			name := fmt.Sprintf("v%d", v)
			vars = append(vars, name)
			relOf = append(relOf, rel)
			fmt.Fprintf(&b, "%s(%s)", rel, name)
		}
		npreds := 1 + rng.Intn(3)
		for k := 0; k < npreds; k++ {
			i, j := rng.Intn(nvars), rng.Intn(nvars)
			ai := attrs[relOf[i]][rng.Intn(len(attrs[relOf[i]]))]
			switch rng.Intn(3) {
			case 0:
				fmt.Fprintf(&b, " ^ %s.%s = %q", vars[i], ai, "const value")
			case 1:
				aj := attrs[relOf[j]][rng.Intn(len(attrs[relOf[j]]))]
				fmt.Fprintf(&b, " ^ %s.%s = %s.%s", vars[i], ai, vars[j], aj)
			case 2:
				fmt.Fprintf(&b, " ^ jaccard05(%s.%s, %s.%s)", vars[i], ai,
					vars[j], attrs[relOf[j]][rng.Intn(len(attrs[relOf[j]]))])
			}
		}
		// Head: id pred over two same-relation vars if possible, else ML.
		hi, hj := -1, -1
		for i := 0; i < nvars && hi < 0; i++ {
			for j := i + 1; j < nvars; j++ {
				if relOf[i] == relOf[j] {
					hi, hj = i, j
					break
				}
			}
		}
		if hi >= 0 {
			fmt.Fprintf(&b, " -> %s.id = %s.id", vars[hi], vars[hj])
		} else {
			fmt.Fprintf(&b, " -> jaccard05(%s.%s, %s.%s)", vars[0], attrs[relOf[0]][1],
				vars[1], attrs[relOf[1]][1])
		}
		text := b.String()
		parsed, err := rule.Parse(text)
		if err != nil {
			t.Fatalf("trial %d: parse %q: %v", trial, text, err)
		}
		if err := parsed[0].Resolve(db); err != nil {
			// Random type combinations may be incompatible; that is a
			// legitimate resolution error, not a round-trip failure.
			continue
		}
		printed := parsed[0].String()
		again, err := rule.Parse(printed)
		if err != nil {
			t.Fatalf("trial %d: re-parse %q: %v", trial, printed, err)
		}
		if err := again[0].Resolve(db); err != nil {
			t.Fatalf("trial %d: re-resolve %q: %v", trial, printed, err)
		}
		if again[0].String() != printed {
			t.Fatalf("trial %d: print/parse not a fixpoint:\n%s\n%s", trial, printed, again[0].String())
		}
	}
}

// TestSymmetry checks which rules rule.Symmetry recognises as their own
// mirror image: every TPCH and TFACC rule is, and each way a rule can fail
// to be — by relation, constant, join, attribute list, classifier or head —
// is rejected.
func TestSymmetry(t *testing.T) {
	allSymmetric := func(string) bool { return true }
	for _, rs := range []struct {
		name string
		text string
		db   *relation.Database
		want int
	}{
		{"tpch", datagen.TPCHRulesText, datagen.TPCHSchemas(), 6},
		{"tfacc", datagen.TFACCRulesText, datagen.TFACCSchemas(), 8},
	} {
		rules, err := rule.ParseResolved(rs.text, rs.db)
		if err != nil {
			t.Fatalf("%s: %v", rs.name, err)
		}
		if len(rules) != rs.want {
			t.Fatalf("%s: %d rules, want %d", rs.name, len(rules), rs.want)
		}
		for _, r := range rules {
			sigma := rule.Symmetry(r, allSymmetric)
			if sigma == nil {
				t.Errorf("%s rule %s: no symmetry found", rs.name, r.Name)
				continue
			}
			for v, w := range sigma {
				if sigma[w] != v || r.Vars[v].RelIdx != r.Vars[w].RelIdx {
					t.Errorf("%s rule %s: σ = %v is not a relation-preserving involution", rs.name, r.Name, sigma)
				}
			}
			if sigma[r.Head.V1] != r.Head.V2 {
				t.Errorf("%s rule %s: σ = %v does not swap the head", rs.name, r.Name, sigma)
			}
		}
	}

	str := relation.TypeString
	a := func(n string) relation.Attribute { return relation.Attribute{Name: n, Type: str} }
	db := relation.MustDatabase(
		relation.MustSchema("P", "pk", a("pk"), a("x"), a("y"), a("ref")),
		relation.MustSchema("Q", "qk", a("qk"), a("x"), a("y"), a("ref")),
		relation.MustSchema("R", "rk", a("rk"), a("x"), a("y"), a("ref")),
	)
	for _, c := range []struct {
		name  string
		text  string
		asym  string // model symmetricML rejects
		sigma []int
	}{
		{name: "plain pair",
			text: `P(a) ^ P(b) ^ a.x = b.x -> a.id = b.id`, sigma: []int{1, 0}},
		{name: "cross attributes, both ways",
			text: `P(a) ^ P(b) ^ a.x = b.y ^ a.y = b.x -> a.id = b.id`, sigma: []int{1, 0}},
		{name: "mirrored constants",
			text: `P(a) ^ P(b) ^ a.x = "u" ^ b.x = "u" -> a.id = b.id`, sigma: []int{1, 0}},
		{name: "shared third variable is a fixed point",
			text: `P(a) ^ P(b) ^ R(c) ^ a.ref = c.rk ^ b.ref = c.rk -> a.id = b.id`, sigma: []int{1, 0, 2}},
		{name: "mirrored join with id predicate",
			text:  `P(a) ^ P(b) ^ R(c) ^ R(e) ^ a.ref = c.rk ^ b.ref = e.rk ^ c.id = e.id -> a.id = b.id`,
			sigma: []int{1, 0, 3, 2}},
		{name: "symmetric ML on equal attribute lists",
			text: `P(a) ^ P(b) ^ lev080(a.y, b.y) -> a.id = b.id`, sigma: []int{1, 0}},
		{name: "ML pair mapped onto each other",
			text:  `P(a) ^ P(b) ^ R(c) ^ R(e) ^ a.ref = c.rk ^ b.ref = e.rk ^ lev080(a.x, e.y) ^ lev080(b.x, c.y) -> a.id = b.id`,
			sigma: []int{1, 0, 3, 2}},

		{name: "relation mismatch",
			text: `P(a) ^ Q(b) ^ a.x = b.x -> a.id = b.id`},
		{name: "cross attributes, one way",
			text: `P(a) ^ P(b) ^ a.x = b.y -> a.id = b.id`},
		{name: "one-sided constant",
			text: `P(a) ^ P(b) ^ a.x = b.x ^ a.y = "u" -> a.id = b.id`},
		{name: "unequal constants",
			text: `P(a) ^ P(b) ^ a.x = "u" ^ b.x = "v" -> a.id = b.id`},
		{name: "one-sided join",
			text: `P(a) ^ P(b) ^ R(c) ^ a.x = b.x ^ a.ref = c.rk -> a.id = b.id`},
		{name: "mirrored join into different relations",
			text: `P(a) ^ P(b) ^ R(c) ^ Q(e) ^ a.ref = c.rk ^ b.ref = e.qk -> a.id = b.id`},
		{name: "ML with unequal attribute lists",
			text: `P(a) ^ P(b) ^ lev080(a.x, b.y) -> a.id = b.id`},
		{name: "asymmetric classifier",
			text: `P(a) ^ P(b) ^ prefix(a.y, b.y) -> a.id = b.id`, asym: "prefix"},
		{name: "dynamic ML predicate",
			text: `P(a) ^ P(b) ^ a.x = b.x ^ lev080(a.y, b.y) -> a.id = b.id`, asym: "lev080"},
		{name: "ML head",
			text: `P(a) ^ P(b) ^ a.x = b.x -> lev080(a.y, b.y)`},
		{name: "reflexive head",
			text: `P(a) ^ P(b) ^ a.x = b.x -> a.id = a.id`},
	} {
		rules, err := rule.ParseResolved("r: "+c.text+"\n", db)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := rule.Symmetry(rules[0], func(model string) bool { return model != c.asym })
		if fmt.Sprint(got) != fmt.Sprint(c.sigma) {
			t.Errorf("%s: Symmetry(%s) = %v, want %v", c.name, c.text, got, c.sigma)
		}
	}
}
