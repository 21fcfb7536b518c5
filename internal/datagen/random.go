package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"dcer/internal/relation"
	"dcer/internal/rule"
)

// RandomInstance builds the instance the property tests cross-validate
// the engines on (against complexity.NaiveChase, and against each other
// across execution modes): a small random dataset over a fixed 3-relation
// schema with tiny value domains, to force collisions, and two to six
// random rules mixing equality, constant, id and ML predicates — deep,
// collective, or both.
//
// About half of the rules are drawn mirrored — both head variables on one
// relation and every predicate matched by its mirror image, across up to
// three relations — which are the rules the chase enumerates under
// symmetry reduction (rule.Symmetry); the rest are asymmetric in relation,
// attribute or shape, which it must leave alone. One rule in eight has an
// ML head, which makes lev080 a model that heads validate, so that the
// rule sets also cover body predicates whose truth can flip.
func RandomInstance(seed int64) (*relation.Dataset, []*rule.Rule, error) {
	rng := rand.New(rand.NewSource(seed))
	str := relation.TypeString
	a := func(n string) relation.Attribute { return relation.Attribute{Name: n, Type: str} }
	db := relation.MustDatabase(
		relation.MustSchema("P", "pk", a("pk"), a("x"), a("y"), a("ref")),
		relation.MustSchema("Q", "qk", a("qk"), a("x"), a("y"), a("ref")),
		relation.MustSchema("R", "rk", a("rk"), a("x"), a("y"), a("ref")),
	)
	d := relation.NewDataset(db)
	names := []string{"P", "Q", "R"}
	vals := []string{"u", "v", "w"} // tiny domain: plenty of collisions
	size := 6 + rng.Intn(10)
	for _, rel := range names {
		for i := 0; i < size; i++ {
			d.MustAppend(rel,
				relation.S(fmt.Sprintf("%s%d", rel, i)),
				relation.S(vals[rng.Intn(len(vals))]),
				relation.S(vals[rng.Intn(len(vals))]),
				relation.S(fmt.Sprintf("%s%d", names[rng.Intn(3)], rng.Intn(size))))
		}
	}
	attrs := []string{"x", "y"}
	key := func(rel string) string { return strings.ToLower(rel) + "k" }
	var rulesText strings.Builder
	numRules := 2 + rng.Intn(4)
	for ri := 0; ri < numRules; ri++ {
		mirrored := rng.Intn(2) == 0
		relA := names[rng.Intn(3)]
		relB := names[rng.Intn(3)]
		if mirrored {
			relB = relA
		}
		relC := names[rng.Intn(3)]
		body := ""
		// 1-2 equality predicates between a and b.
		for k := 0; k <= rng.Intn(2); k++ {
			x, y := attrs[rng.Intn(2)], attrs[rng.Intn(2)]
			body += fmt.Sprintf(" ^ a.%s = b.%s", x, y)
			if mirrored && x != y {
				body += fmt.Sprintf(" ^ a.%s = b.%s", y, x)
			}
		}
		extra := ""
		switch rng.Intn(4) {
		case 0: // constant predicate
			c := vals[rng.Intn(len(vals))]
			body += fmt.Sprintf(" ^ a.x = %q", c)
			if mirrored {
				body += fmt.Sprintf(" ^ b.x = %q", c)
			}
		case 1: // ML predicate (threshold similarity on small strings)
			body += " ^ lev080(a.y, b.y)"
		case 2: // deep: id predicate over a third pair of variables
			extra = fmt.Sprintf(" ^ %s(c) ^ %s(e) ^ a.ref = c.%s ^ b.ref = e.%s ^ c.id = e.id",
				relC, relC, key(relC), key(relC))
		case 3: // collective join through further variables
			if mirrored {
				extra = fmt.Sprintf(" ^ %s(c) ^ %s(e) ^ a.ref = c.%s ^ b.ref = e.%s ^ c.x = e.x ^ lev080(c.y, e.y)",
					relC, relC, key(relC), key(relC))
			} else {
				extra = fmt.Sprintf(" ^ %s(c) ^ a.ref = c.%s ^ c.x = b.y", relC, key(relC))
			}
		}
		head := "a.id = b.id"
		if rng.Intn(8) == 0 {
			head = "lev080(a.y, b.y)"
		}
		fmt.Fprintf(&rulesText, "r%d: %s(a) ^ %s(b)%s%s -> %s\n", ri, relA, relB, body, extra, head)
	}
	rules, err := rule.ParseResolved(rulesText.String(), db)
	return d, rules, err
}
