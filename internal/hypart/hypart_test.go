package hypart_test

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"dcer/internal/datagen"
	"dcer/internal/hypart"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

// bruteValuations enumerates every valuation of r over d that satisfies
// the static (constant and equality) predicates, ignoring id and ML
// predicates — exactly the valuations Lemma 6 requires to be co-located,
// since id/ML predicates can become true through deduction.
func bruteValuations(d *relation.Dataset, r *rule.Rule, emit func([]*relation.Tuple)) {
	binding := make([]*relation.Tuple, len(r.Vars))
	ok := func(v int, t *relation.Tuple) bool {
		for i := range r.Body {
			p := &r.Body[i]
			switch p.Kind {
			case rule.PredConst:
				if p.V1 == v && !t.Val(p.A1).Equal(p.Const) {
					return false
				}
			case rule.PredEq:
				if p.V1 == v && p.V2 == v {
					if !t.Val(p.A1).Equal(t.Val(p.A2)) {
						return false
					}
				} else if p.V1 == v && p.V2 < v && binding[p.V2] != nil {
					if !t.Val(p.A1).Equal(binding[p.V2].Val(p.A2)) {
						return false
					}
				} else if p.V2 == v && p.V1 < v && binding[p.V1] != nil {
					if !t.Val(p.A2).Equal(binding[p.V1].Val(p.A1)) {
						return false
					}
				}
			}
		}
		return true
	}
	var walk func(v int)
	walk = func(v int) {
		if v == len(r.Vars) {
			emit(binding)
			return
		}
		for _, t := range d.Relations[r.Vars[v].RelIdx].Tuples {
			if !ok(v, t) {
				continue
			}
			binding[v] = t
			walk(v + 1)
		}
	}
	walk(0)
}

// TestLemma6Locality checks HyPart's locality property on the paper's
// running example: every static-satisfying valuation of every rule lies
// in exactly one owned cell, whose block holds all its tuples, for several
// worker counts and both MQO settings.
func TestLemma6Locality(t *testing.T) {
	d, _ := datagen.PaperExample()
	rules, err := datagen.PaperRules(d.DB)
	if err != nil {
		t.Fatal(err)
	}
	for _, share := range []bool{true, false} {
		for _, n := range []int{2, 3, 4, 8, 16} {
			res, err := hypart.Partition(d, rules, n, hypart.Options{Share: share})
			if err != nil {
				t.Fatalf("share=%v n=%d: %v", share, n, err)
			}
			checkLocality(t, d, rules, res, n)
		}
	}
}

// TestLemma6LocalityRandom repeats the locality check on random datasets
// and random rule sets (the same generator as the chase oracle tests).
func TestLemma6LocalityRandom(t *testing.T) {
	for seed := int64(200); seed < 220; seed++ {
		d, rules := randomPartitionInstance(t, seed)
		for _, n := range []int{3, 7} {
			res, err := hypart.Partition(d, rules, n, hypart.Options{Share: seed%2 == 0})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			checkLocality(t, d, rules, res, n)
		}
	}
}

// randomPartitionInstance builds small random datasets and rules for the
// locality property test (kept narrow: brute-force enumeration must stay
// cheap).
func randomPartitionInstance(t *testing.T, seed int64) (*relation.Dataset, []*rule.Rule) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	str := relation.TypeString
	a := func(n string) relation.Attribute { return relation.Attribute{Name: n, Type: str} }
	db := relation.MustDatabase(
		relation.MustSchema("P", "pk", a("pk"), a("x"), a("y"), a("ref")),
		relation.MustSchema("Q", "qk", a("qk"), a("x"), a("y"), a("ref")),
	)
	d := relation.NewDataset(db)
	vals := []string{"u", "v", "w", "z"}
	names := []string{"P", "Q"}
	size := 8 + rng.Intn(8)
	for _, rel := range names {
		for i := 0; i < size; i++ {
			d.MustAppend(rel,
				relation.S(fmt.Sprintf("%s%d", rel, i)),
				relation.S(vals[rng.Intn(len(vals))]),
				relation.S(vals[rng.Intn(len(vals))]),
				relation.S(fmt.Sprintf("%s%d", names[rng.Intn(2)], rng.Intn(size))))
		}
	}
	var text string
	for ri := 0; ri < 2+rng.Intn(3); ri++ {
		ra, rb := names[rng.Intn(2)], names[rng.Intn(2)]
		body := fmt.Sprintf("a.x = b.%s", []string{"x", "y"}[rng.Intn(2)])
		switch rng.Intn(3) {
		case 0:
			body += fmt.Sprintf(" ^ a.y = %q", vals[rng.Intn(len(vals))])
		case 1:
			rc := names[rng.Intn(2)]
			body += fmt.Sprintf(" ^ %s(c) ^ a.ref = c.%sk ^ c.id = b.id", rc, lower(rc))
		case 2:
			body += " ^ lev080(a.y, b.y)"
		}
		text += fmt.Sprintf("r%d: %s(a) ^ %s(b) ^ %s -> a.id = b.id\n", ri, ra, rb, body)
	}
	rules, err := rule.ParseResolved(text, db)
	if err != nil {
		t.Fatalf("seed %d: %v\n%s", seed, err, text)
	}
	return d, rules
}

func lower(s string) string { return string(s[0] + 32) }

// TestPartitionShapes sanity-checks the per-worker accounting.
func TestPartitionShapes(t *testing.T) {
	g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.05, Dup: 0.3, Seed: 2})
	rules, err := g.Rules()
	if err != nil {
		t.Fatal(err)
	}
	res, err := hypart.Partition(g.D, rules, 8, hypart.Options{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int, len(res.Blocks))
	for b := range res.Blocks {
		assign[b] = res.Blocks[b].Worker
	}
	total := 0
	for _, h := range res.Hosts(g.D, assign, 8) {
		total += bits.OnesCount64(h)
	}
	if total == 0 {
		t.Fatal("empty partition")
	}
	// Replication must stay moderate under the cap.
	if factor := float64(total) / float64(g.D.Size()); factor > 6 {
		t.Errorf("replication factor %.1f too high", factor)
	}
	if res.Stats.HashFns > res.Stats.HashFnsBaseline {
		t.Errorf("sharing uses more hash functions (%d) than baseline (%d)",
			res.Stats.HashFns, res.Stats.HashFnsBaseline)
	}
	// The memoizing hasher must be reusing computations across rules.
	if res.Stats.HashComputations >= res.Stats.HashLookups {
		t.Errorf("no hash-computation reuse: %d computations, %d lookups",
			res.Stats.HashComputations, res.Stats.HashLookups)
	}
}

// TestSingleWorkerIsWholeDataset checks the n=1 fast path: one block
// holding the dataset, and every rule's cube one cell in it.
func TestSingleWorkerIsWholeDataset(t *testing.T) {
	d, _ := datagen.PaperExample()
	rules, err := datagen.PaperRules(d.DB)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hypart.Partition(d, rules, 1, hypart.Options{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 1 || res.Blocks[0].Size != d.Size() || res.Blocks[0].Worker != 0 {
		t.Fatalf("n=1 partition should be one block of all %d tuples on worker 0, got %d blocks", d.Size(), len(res.Blocks))
	}
	for ri, cb := range res.Cubes {
		if cb.Size() != 1 || cb.Blocks[0] != 0 || cb.Owned([]int{0}, 0)[0] != 1 {
			t.Errorf("rule %d: n=1 cube should be one cell, in block 0, owned by worker 0", ri)
		}
	}
}
