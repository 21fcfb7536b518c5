package chase_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dcer/internal/chase"
	"dcer/internal/datagen"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

// valuations enumerates rule ri of eng from seed along seq (nil: the
// planned order) and returns the emitted valuations, sorted.
func valuations(eng *chase.Engine, ri int, seed []*relation.Tuple, seq []int) []string {
	return cutValuations(eng, ri, seed, seq, 0, 0, nil)
}

// cutValuations is valuations under the epoch cut (cut, epoch), keeping
// only the valuations keep accepts (nil: all).
func cutValuations(eng *chase.Engine, ri int, seed []*relation.Tuple, seq []int, cut int, epoch relation.TID, keep func([]relation.TID) bool) []string {
	var out []string
	eng.EnumerateOrder(ri, seed, seq, cut, epoch, func(gids []relation.TID) {
		if keep == nil || keep(gids) {
			out = append(out, fmt.Sprint(gids))
		}
	})
	slices.Sort(out)
	return out
}

// maxCross bounds the cross products a forced order may build: the
// product of the relation sizes of the variables it binds by scan, with
// nothing joining them to the variables bound before. Orders beyond it
// (customer × customer × lineitem is 10^8 on TPCH 0.1) cost minutes and
// test nothing the cheaper ones do not.
const maxCross = 2e5

// samplePerms returns the orders of the free variables of r, given the
// bound ones, whose cross products stay within maxCross: all of them, or
// limit spread evenly over their lexicographic order when there are more.
func samplePerms(d *relation.Dataset, r *rule.Rule, bound, free []int, limit int) [][]int {
	var all [][]int
	var walk func(p, rest []int)
	walk = func(p, rest []int) {
		if len(rest) == 0 {
			if cross(d, r, bound, p) <= maxCross {
				all = append(all, slices.Clone(p))
			}
			return
		}
		for i, v := range rest {
			walk(append(p, v), slices.Concat(rest[:i], rest[i+1:]))
		}
	}
	walk(nil, free)
	if len(all) <= limit {
		return all
	}
	out := make([][]int, limit)
	for i := range out {
		out[i] = all[i*len(all)/limit]
	}
	return out
}

// cross is the product of the relation sizes of the variables seq binds
// with no equality or constant to the variables bound before them.
func cross(d *relation.Dataset, r *rule.Rule, bound, seq []int) float64 {
	in := map[int]bool{}
	for _, v := range bound {
		in[v] = true
	}
	c := 1.0
	for _, v := range seq {
		joined := false
		for _, p := range r.Body {
			switch {
			case p.Kind == rule.PredConst && p.V1 == v:
				joined = true
			case p.Kind == rule.PredEq && (p.V1 == v && in[p.V2] || p.V2 == v && in[p.V1]):
				joined = true
			}
		}
		if !joined {
			c *= float64(len(d.Relations[r.Vars[v].RelIdx].Tuples))
		}
		in[v] = true
	}
	return c
}

// patternSeeds returns up to n seeds for the bound variables pat of a
// rule: the projections onto pat of valuations spread evenly over base
// (so each seeded enumeration finds something), or, when base is empty,
// the first tuple of each bound variable's relation.
func patternSeeds(d *relation.Dataset, r *rule.Rule, pat []int, base []string, n int) [][]*relation.Tuple {
	if len(pat) == 0 {
		return [][]*relation.Tuple{nil}
	}
	var seeds [][]*relation.Tuple
	seen := map[string]bool{}
	for k := 0; k < n && k < len(base); k++ {
		i := k * (len(base) - 1) / max(n-1, 1)
		var gids []relation.TID
		for _, f := range strings.Fields(strings.Trim(base[i], "[]")) {
			var g int
			fmt.Sscan(f, &g)
			gids = append(gids, relation.TID(g))
		}
		seed := make([]*relation.Tuple, len(r.Vars))
		key := ""
		for _, v := range pat {
			seed[v] = d.Tuple(gids[v])
			key += fmt.Sprint(gids[v], ",")
		}
		if !seen[key] {
			seen[key] = true
			seeds = append(seeds, seed)
		}
	}
	if len(seeds) == 0 {
		seed := make([]*relation.Tuple, len(r.Vars))
		for _, v := range pat {
			ts := d.Relations[r.Vars[v].RelIdx].Tuples
			if len(ts) == 0 {
				return nil
			}
			seed[v] = ts[0]
		}
		seeds = append(seeds, seed)
	}
	return seeds
}

// nanInstance is a dataset whose float key columns hold NaN: A's keys are
// unique, B's repeat.
func nanInstance(t *testing.T) (*relation.Dataset, []*rule.Rule) {
	t.Helper()
	str, fl := relation.TypeString, relation.TypeFloat
	a := func(n string, ty relation.Type) relation.Attribute { return relation.Attribute{Name: n, Type: ty} }
	db := relation.MustDatabase(
		relation.MustSchema("A", "ak", a("ak", str), a("k", fl), a("x", str)),
		relation.MustSchema("B", "bk", a("bk", str), a("k", fl), a("x", str)),
	)
	d := relation.NewDataset(db)
	nan := math.NaN()
	for i, k := range []float64{1, 2, nan, 3} {
		d.MustAppend("A", relation.S(fmt.Sprint("a", i)), relation.F(k), relation.S(fmt.Sprint("x", i%2)))
	}
	for i, k := range []float64{1, 1, nan, nan, 2, 5, 3} {
		d.MustAppend("B", relation.S(fmt.Sprint("b", i)), relation.F(k), relation.S(fmt.Sprint("x", i%2)))
	}
	rules, err := rule.ParseResolved(`
r1: B(b) ^ B(c) ^ A(a) ^ b.k = a.k ^ c.k = a.k -> b.id = c.id
r2: B(b) ^ B(c) ^ A(a) ^ b.k = a.k ^ c.x = a.x -> b.id = c.id
`, db)
	if err != nil {
		t.Fatal(err)
	}
	return d, rules
}

// classInstance is a dataset whose E_id, once New has pre-merged the
// duplicate ids and IncDeduce has folded in external matches, holds
// classes of up to six members that span both relations, listed out of
// GID order by the merges. Rule c1 binds d through c's class, rule c2
// carries two id predicates across the relations, rule c3 two on one
// variable, so that an order binding a and b first answers one through c's
// class and checks the other as a filter, and rule v, which never applies,
// validates lev080 — so lev080 is dynamic, emit rejects the dissimilar x
// pairs, and their valuations survive the fixpoint (one whose head is
// enforced is pruned before it is complete).
func classInstance(t *testing.T) (*relation.Dataset, []*rule.Rule, []chase.Fact) {
	t.Helper()
	str := relation.TypeString
	a := func(n string) relation.Attribute { return relation.Attribute{Name: n, Type: str} }
	db := relation.MustDatabase(
		relation.MustSchema("A", "ak", a("ak"), a("k"), a("x")),
		relation.MustSchema("B", "bk", a("bk"), a("k"), a("x")),
	)
	d := relation.NewDataset(db)
	for i := 0; i < 24; i++ {
		rel, id := "A", fmt.Sprint("e", i%9) // A0 and A9 share an id
		if i%2 == 1 {
			rel, id = "B", fmt.Sprint("e", i%7)
		}
		d.MustAppend(rel, relation.S(id), relation.S(fmt.Sprint("k", i%3)), relation.S(fmt.Sprint("x", i)))
	}
	rules, err := rule.ParseResolved(`
c1: A(a) ^ A(b) ^ B(c) ^ B(d) ^ a.k = c.k ^ b.k = d.k ^ c.id = d.id ^ lev080(a.x, b.x) -> a.id = b.id
c2: A(a) ^ B(c) ^ A(b) ^ B(d) ^ a.id = c.id ^ b.id = d.id ^ c.k = d.k ^ lev080(a.x, b.x) -> a.id = b.id
c3: A(a) ^ A(b) ^ B(c) ^ A(e) ^ a.id = c.id ^ c.id = b.id ^ b.k = e.k ^ lev080(a.x, e.x) -> a.id = e.id
v: A(a) ^ A(b) ^ a.x = "none" -> lev080(a.x, b.x)
`, db)
	if err != nil {
		t.Fatal(err)
	}
	// Merges whose later member lists interleave the earlier ones' GIDs.
	ext := []chase.Fact{
		chase.MatchFact(20, 3), chase.MatchFact(5, 22), chase.MatchFact(3, 12),
		chase.MatchFact(7, 16), chase.MatchFact(22, 1), chase.MatchFact(11, 2),
	}
	return d, rules, ext
}

// TestJoinOrderInvariance checks that a rule's valuation set does not
// depend on its join order: for every rule of TPCH 0.1, TFACC 0.1, random
// instances, a float-keyed instance with NaNs and an instance with
// multi-member E_id classes (classInstance), from every seed pattern the
// engine plans, each of up to 40 orders of the free variables (12 under
// -short; samplePerms) emits exactly the planned order's valuations. On
// the class instance every order also runs through the interpreter and
// under each epoch cut, which must keep exactly the valuations whose cut
// variables are older than the epoch: class lists are cut by binary
// search, so this holds only while they stay in GID order.
func TestJoinOrderInvariance(t *testing.T) {
	limit, seeds, randoms := 40, 3, int64(8)
	if testing.Short() {
		limit, seeds, randoms = 12, 1, 3
	}
	type instance struct {
		name     string
		d        *relation.Dataset
		rules    []*rule.Rule
		external []chase.Fact // folded in with IncDeduce before enumerating
	}
	var cases []instance
	for _, g := range []struct {
		name string
		g    *datagen.Generated
	}{
		{"tpch0.1", datagen.TPCH(datagen.TPCHOptions{Scale: 0.1, Dup: 0.3, Seed: 1})},
		{"tfacc0.1", datagen.TFACC(datagen.TFACCOptions{Scale: 0.1, Dup: 0.3, Seed: 1})},
	} {
		rules, err := g.g.Rules()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, instance{name: g.name, d: g.g.D, rules: rules})
	}
	for seed := int64(400); seed < 400+randoms; seed++ {
		d, rules, err := datagen.RandomInstance(seed)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, instance{name: fmt.Sprint("random", seed), d: d, rules: rules})
	}
	d, rules := nanInstance(t)
	cases = append(cases, instance{name: "nan", d: d, rules: rules})
	d, rules, ext := classInstance(t)
	cases = append(cases, instance{"classes", d, rules, ext})

	for _, tc := range cases {
		eng, err := chase.New(tc.d, tc.rules, mlpred.DefaultRegistry(), chase.Options{ShareIndexes: true})
		if err != nil {
			t.Fatal(err)
		}
		// The interpreter, which checks id predicates in checkNewBinding,
		// must enumerate the same valuations over the same classes.
		var interp *chase.Engine
		if tc.external != nil {
			if interp, err = chase.New(tc.d, tc.rules, mlpred.DefaultRegistry(), chase.Options{ShareIndexes: true}); err != nil {
				t.Fatal(err)
			}
			interp.SetInterpretRules(true)
			interp.IncDeduce(tc.external)
			eng.IncDeduce(tc.external)
			if big := slices.IndexFunc(eng.Classes(), func(c []relation.TID) bool { return len(c) >= 4 }); big < 0 {
				t.Fatalf("%s: no class of four members or more: %v", tc.name, eng.Classes())
			}
		}
		epoch := relation.TID(tc.d.Size() / 2)
		for ri, r := range tc.rules {
			base := valuations(eng, ri, nil, nil)
			if tc.external != nil && r.Head.Kind == rule.PredID && len(base) == 0 {
				t.Errorf("%s rule %s: no valuations to compare", tc.name, r.Name)
			}
			for _, pat := range eng.SeedPatterns(ri) {
				var free []int
				for v := range r.Vars {
					if !slices.Contains(pat, v) {
						free = append(free, v)
					}
				}
				for _, seed := range patternSeeds(tc.d, r, pat, base, seeds) {
					want := valuations(eng, ri, seed, nil)
					for _, perm := range samplePerms(tc.d, r, pat, free, limit) {
						if got := valuations(eng, ri, seed, perm); !reflect.DeepEqual(got, want) {
							t.Errorf("%s rule %s pattern %v order %v: %d valuations, planned order %d",
								tc.name, r.Name, pat, perm, len(got), len(want))
						}
						if tc.external == nil {
							continue
						}
						if got := valuations(interp, ri, seed, perm); !reflect.DeepEqual(got, want) {
							t.Errorf("%s rule %s pattern %v order %v: %d valuations interpreted, planned order %d",
								tc.name, r.Name, pat, perm, len(got), len(want))
						}
						for cut := 1; cut < len(r.Vars); cut++ {
							older := func(gids []relation.TID) bool {
								for v := range cut {
									if seed == nil || seed[v] == nil {
										if gids[v] >= epoch {
											return false
										}
									}
								}
								return true
							}
							want := cutValuations(eng, ri, seed, nil, 0, 0, older)
							if got := cutValuations(eng, ri, seed, perm, cut, epoch, nil); !reflect.DeepEqual(got, want) {
								t.Errorf("%s rule %s pattern %v order %v cut %d: %d valuations, %d older than the epoch",
									tc.name, r.Name, pat, perm, cut, len(got), len(want))
							}
						}
					}
				}
			}
		}
		if tc.name != "nan" {
			continue
		}
		// NaN equals nothing: no valuation binds b or a, which both rules
		// join on k, to a tuple whose k is NaN.
		for ri, r := range tc.rules {
			for _, perm := range samplePerms(tc.d, r, nil, []int{0, 1, 2}, 6) {
				eng.EnumerateOrder(ri, nil, perm, 0, 0, func(gids []relation.TID) {
					for _, g := range []relation.TID{gids[0], gids[2]} {
						if k := tc.d.Tuple(g).Val(1).Num; k != k {
							t.Errorf("nan rule %s order %v: valuation %v binds a NaN key", r.Name, perm, gids)
						}
					}
				})
			}
		}
	}
}

// TestEqualityProbeFollowsInserts appends, through InsertTuples, a target
// row that existing probing rows reference, new probing rows, a target row
// that repeats a key, and a probing row whose float key is NaN. After each
// batch every planned order's enumeration — from scratch along the greedy
// plan and two forced orders, and from each seed pattern the engine plans
// — must equal the interpreter's over the same inserts, and the classes
// must equal those of a chase from scratch.
//
// Rule r's id predicate binds s to t's class, a singleton, so its
// valuations are the P rows that share a target. At a fixpoint a valuation
// that derives its head is pruned before it is complete, so only those
// that lev080 — dynamic, since rule v, which never applies, validates it —
// rejects are left to compare: pairs of dissimilar pks. Rule f joins P to
// T on a float key, which a NaN probe word never finds.
func TestEqualityProbeFollowsInserts(t *testing.T) {
	str, fl := relation.TypeString, relation.TypeFloat
	a := func(n string, ty relation.Type) relation.Attribute { return relation.Attribute{Name: n, Type: ty} }
	db := relation.MustDatabase(
		relation.MustSchema("T", "tk", a("tk", str), a("key", str), a("f", fl)),
		relation.MustSchema("P", "pk", a("pk", str), a("ref", str), a("name", str), a("f", fl)),
	)
	d := relation.NewDataset(db)
	add := func(rel string, f float64, vals ...string) *relation.Tuple {
		var vs []relation.Value
		for _, v := range vals {
			vs = append(vs, relation.S(v))
		}
		return d.MustAppend(rel, append(vs, relation.F(f))...)
	}
	add("T", 0, "t0", "k0")
	add("T", 1, "t1", "k1")
	add("P", 0, "pa0000", "k0", "n")
	add("P", 2, "p1", "k2", "n") // no target yet
	add("P", 1, "p2", "k1", "n")
	add("P", 0, "q0", "k0", "n") // shares t0 with pa0000
	const text = `
r: P(p) ^ P(q) ^ T(t) ^ T(s) ^ p.ref = t.key ^ q.ref = s.key ^ p.name = q.name ^ t.id = s.id ^ lev080(p.pk, q.pk) -> p.id = q.id
f: P(p) ^ P(q) ^ T(t) ^ p.f = t.f ^ q.f = t.f ^ lev080(p.pk, q.pk) -> p.id = q.id
v: P(p) ^ P(q) ^ p.name = "none" -> lev080(p.pk, q.pk)`
	rules, err := rule.ParseResolved(text, db)
	if err != nil {
		t.Fatal(err)
	}
	reg := mlpred.DefaultRegistry()
	eng, err := chase.New(d, rules, reg, chase.Options{ShareIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	interp, err := chase.New(d, rules, reg, chase.Options{ShareIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	interp.SetInterpretRules(true)
	eng.Run()
	interp.Run()
	probeFirst := []int{0, 2, 1, 3} // p, then t through p's key, q, s
	tFirst := []int{2, 0, 3, 1}     // t, p, then s through t's class, q
	check := func(stage string) {
		t.Helper()
		for _, seq := range [][]int{nil, probeFirst, tFirst} {
			got, want := valuations(eng, 0, nil, seq), valuations(interp, 0, nil, seq)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s order %v: %d valuations, %d interpreted", stage, seq, len(got), len(want))
			}
			if len(want) == 0 {
				t.Errorf("%s order %v: no valuations to compare", stage, seq)
			}
			t.Logf("%s order %v: %d valuations", stage, seq, len(want))
		}
		for ri, r := range rules {
			base := valuations(interp, ri, nil, nil)
			for _, pat := range eng.SeedPatterns(ri) {
				for _, seed := range patternSeeds(d, r, pat, base, 3) {
					if got, want := valuations(eng, ri, seed, nil), valuations(interp, ri, seed, nil); !reflect.DeepEqual(got, want) {
						t.Errorf("%s rule %s pattern %v: %d valuations, %d interpreted", stage, r.Name, pat, len(got), len(want))
					}
				}
			}
		}
		fresh, err := chase.New(d, rules, reg, chase.Options{ShareIndexes: true})
		if err != nil {
			t.Fatal(err)
		}
		fresh.Run()
		if got, want := canonClasses(eng.Classes()), canonClasses(fresh.Classes()); got != want {
			t.Errorf("%s: inserts reach classes %s, a chase from scratch %s", stage, got, want)
		}
	}
	insert := func(batch ...*relation.Tuple) {
		t.Helper()
		for _, e := range []*chase.Engine{eng, interp} {
			if _, err := e.InsertTuples(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("initial")
	insert(
		add("T", 2, "t2", "k2"), // p1's target arrives
		add("P", 2, "p3", "k2", "n"),
		add("P", 3, "p4", "k3", "n"),
		add("T", 3, "t3", "k3"),
	)
	check("new keys")
	// pa0005 shares both k0 targets with pa0000, and lev080 accepts the
	// pair: the batch derives a match, which is then pruned.
	insert(add("T", 0, "t4", "k0"), add("P", 0, "pa0005", "k0", "n"))
	check("repeated key")
	// A NaN float key equals nothing, not even the NaN key of T it joins.
	insert(add("T", math.NaN(), "t5", "k5"), add("P", math.NaN(), "p5", "k5", "n"))
	check("NaN key")
	if n := len(eng.Classes()); n != 1 {
		t.Errorf("inserts reach %d classes, want one: %v", n, eng.Classes())
	}
	n := 0
	eng.EnumerateOrder(1, nil, nil, 0, 0, func(gids []relation.TID) {
		n++
		for _, g := range gids {
			if f := d.Tuple(g).Val(d.SchemaOf(d.Tuple(g)).Arity() - 1).Num; f != f {
				t.Errorf("rule f: valuation %v binds a NaN key", gids)
			}
		}
	})
	if n == 0 {
		t.Error("rule f: no valuations to check")
	}
}

// TestJoinOrderTPCH pins the planned orders of two rules whose id
// predicate now binds a variable through its E_id class — tc's m from n's
// class right after the nation scan, to's d from c's — and checks over
// the TPCH and TFACC rule sets that no planned order binds a variable by
// scan while an id predicate, an equality or a constant reaches another,
// and that in every planned order, from every seed pattern, each id
// predicate is answered once one side is bound: by the class step that
// binds the other side, or by the id step of that side's program. Every
// rule's order for the empty seed pattern must also be its first
// variable's root access followed by that variable's single-variable
// order, which the seed pass at epoch 0 relies on to walk it whole.
func TestJoinOrderTPCH(t *testing.T) {
	pins := map[string]string{"tc": "n m c d", "to": "c d o l w k"}
	for _, g := range []*datagen.Generated{
		datagen.TPCH(datagen.TPCHOptions{Scale: 0.1, Dup: 0.3, Seed: 1}),
		datagen.TFACC(datagen.TFACCOptions{Scale: 0.1, Dup: 0.3, Seed: 1}),
	} {
		rules, err := g.Rules()
		if err != nil {
			t.Fatal(err)
		}
		eng, err := chase.New(g.D, rules, mlpred.DefaultRegistry(), chase.Options{ShareIndexes: true})
		if err != nil {
			t.Fatal(err)
		}
		rep := eng.PlanReport()
		for ri, rr := range rep.Rules {
			r := rules[ri]
			if !eng.EmptyOrderSplits(ri) {
				t.Errorf("rule %s: the empty pattern's order %v is not its first variable's root access and single-variable order", r.Name, rr.Order)
			}
			var names []string
			bound := map[string]bool{}
			for _, st := range rr.Order {
				joined := false
				for _, p := range r.Body {
					v1, v2 := r.Vars[p.V1].Name, r.Vars[p.V2].Name
					switch {
					case p.Kind == rule.PredConst && !bound[v1]:
						joined = true
					case (p.Kind == rule.PredEq || p.Kind == rule.PredID) && bound[v1] != bound[v2]:
						joined = true
					}
				}
				if joined && st.Path == "scan" {
					t.Errorf("rule %s binds %s by scan after %v while a joined variable is available", r.Name, st.Var, names)
				}
				names = append(names, st.Var)
				bound[st.Var] = true
			}
			if want, ok := pins[r.Name]; ok && strings.Join(names, " ") != want {
				t.Errorf("rule %s: order %v, want %s", r.Name, names, want)
			}
			if len(names) != len(r.Vars) {
				t.Errorf("rule %s: order %v binds %d of %d variables", r.Name, names, len(names), len(r.Vars))
			}
			// The id steps of each variable's program.
			filters := map[string]bool{}
			for _, v := range rr.Vars {
				for _, p := range v.Preds {
					if p.Kind == "id" {
						filters[v.Var+" "+p.Pred] = true
					}
				}
			}
			for pi, order := range eng.PlannedOrders(ri) {
				pat := eng.SeedPatterns(ri)[pi]
				for i := range r.Body {
					p := &r.Body[i]
					if p.Kind != rule.PredID || p.V1 == p.V2 {
						continue
					}
					// The side bound later answers p: the later step, or
					// the later seed when both are seeded (seeds are
					// checked in variable order).
					pos := map[int]int{}
					for _, v := range pat {
						pos[v] = -1
					}
					for k, st := range order {
						for v := range r.Vars {
							if r.Vars[v].Name == st.Var {
								pos[v] = k
							}
						}
					}
					later := p.V1
					if pos[p.V2] > pos[p.V1] || pos[p.V2] == pos[p.V1] && p.V2 > p.V1 {
						later = p.V2
					}
					name := r.Vars[later].Name
					byClass := slices.ContainsFunc(order, func(st chase.PlanStep) bool {
						return st.Var == name && st.Path == "class" && st.Via == p.String()
					})
					if !byClass && !filters[name+" "+p.String()] {
						t.Errorf("rule %s pattern %v: %s is answered neither by a class step nor by %s's program", r.Name, pat, p, name)
					}
				}
			}
		}
	}
}
