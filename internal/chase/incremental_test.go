package chase_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"dcer/internal/chase"
	"dcer/internal/datagen"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

func parseFor(db *relation.Database, text string) ([]*rule.Rule, error) {
	return rule.ParseResolved(text, db)
}

// TestInsertTuplesPaperExample chases Tables I-IV *without* the two
// IP-sharing orders that enable the deep φ4 deduction, then inserts them
// incrementally: the engine must converge to the same Γ as a from-scratch
// chase (the ΔD extension of the Section V-A remark).
func TestInsertTuplesPaperExample(t *testing.T) {
	src, labels := datagen.PaperExample()
	d := relation.NewDataset(src.DB)
	label := map[string]*relation.Tuple{}
	for i, tt := range src.Tuples() {
		if tt == labels["t16"] || tt == labels["t17"] {
			continue
		}
		name := src.DB.Schemas[tt.Rel].Name
		label[fmt.Sprintf("t%d", i+1)] = d.MustAppend(name, tt.Values()...)
	}
	rules, err := datagen.PaperRules(d.DB)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := chase.New(d, rules, mlpred.DefaultRegistry(), chase.Options{ShareIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// Before the orders exist, the deep customer match must be absent.
	if eng.Same(label["t1"].GID, label["t3"].GID) {
		t.Fatal("(t1,t3) matched before the enabling orders exist")
	}

	var inserted []*relation.Tuple
	for _, name := range []string{"t16", "t17"} {
		inserted = append(inserted, d.MustAppend("Orders", labels[name].Values()...))
	}
	delta, err := eng.InsertTuples(inserted)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) == 0 {
		t.Fatal("incremental insertion deduced nothing")
	}
	if !eng.Same(label["t1"].GID, label["t3"].GID) {
		t.Error("deep match (t1,t3) not recovered incrementally")
	}
	if !eng.Same(label["t1"].GID, label["t2"].GID) {
		t.Error("transitive match (t1,t2) not recovered incrementally")
	}
	if got, want := len(eng.Classes()), 3; got != want {
		t.Errorf("classes after insertion = %d, want %d", got, want)
	}
}

// TestInsertTuplesMatchesScratch inserts random slices of the TPC-H data
// incrementally and compares against a from-scratch chase.
func TestInsertTuplesMatchesScratch(t *testing.T) {
	g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.03, Dup: 0.4, Seed: 5})
	rules, err := g.Rules()
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := chase.New(g.D, rules, mlpred.DefaultRegistry(), chase.Options{ShareIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	scratch.Run()

	// Rebuild the dataset withholding every 7th tuple, then insert them.
	d := relation.NewDataset(g.D.DB)
	gidMap := make(map[relation.TID]relation.TID) // src gid -> new gid
	var heldSrc []*relation.Tuple
	for i, tt := range g.D.Tuples() {
		if i%7 == 3 {
			heldSrc = append(heldSrc, tt)
			continue
		}
		nt := d.MustAppend(g.D.DB.Schemas[tt.Rel].Name, tt.Values()...)
		gidMap[tt.GID] = nt.GID
	}
	rules2, err := g.Rules()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := chase.New(d, rules2, mlpred.DefaultRegistry(), chase.Options{ShareIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	var held []*relation.Tuple
	for _, tt := range heldSrc {
		nt := d.MustAppend(g.D.DB.Schemas[tt.Rel].Name, tt.Values()...)
		gidMap[tt.GID] = nt.GID
		held = append(held, nt)
	}
	if _, err := eng.InsertTuples(held); err != nil {
		t.Fatal(err)
	}
	// Compare the full pairwise relation through the gid mapping.
	for i := 0; i < g.D.Size(); i++ {
		for j := i + 1; j < g.D.Size(); j++ {
			a, b := relation.TID(i), relation.TID(j)
			if scratch.Same(a, b) != eng.Same(gidMap[a], gidMap[b]) {
				t.Fatalf("incremental and scratch disagree on (%d,%d)", i, j)
			}
		}
	}
}

// TestInsertTuplesDupID checks that an inserted tuple sharing a literal id
// with an existing tuple is merged and drives further deductions.
func TestInsertTuplesDupID(t *testing.T) {
	str := relation.TypeString
	db := relation.MustDatabase(relation.MustSchema("A", "k",
		relation.Attribute{Name: "k", Type: str},
		relation.Attribute{Name: "x", Type: str}))
	d := relation.NewDataset(db)
	d.MustAppend("A", relation.S("k1"), relation.S("u"))
	d.MustAppend("A", relation.S("k2"), relation.S("v"))
	rs, err := parseFor(db, `r: A(a) ^ A(b) ^ a.x = b.x -> a.id = b.id`)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := chase.New(d, rs, mlpred.DefaultRegistry(), chase.Options{ShareIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// Insert a tuple with id k2 but value "u": merging with k2 by literal
	// id and with k1 by the rule joins everything.
	nt := d.MustAppend("A", relation.S("k2"), relation.S("u"))
	if _, err := eng.InsertTuples([]*relation.Tuple{nt}); err != nil {
		t.Fatal(err)
	}
	if !eng.Same(0, 1) || !eng.Same(0, 2) {
		t.Error("insertion did not bridge k1 and k2")
	}
}

// TestInsertTuplesErrors checks the guard rails: a batch is exactly the
// tuples appended since New or the previous call, each once, in any order.
// Every other batch is refused before any state changes.
func TestInsertTuplesErrors(t *testing.T) {
	d, _ := datagen.PaperExample()
	rules, err := datagen.PaperRules(d.DB)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := chase.New(d, rules, mlpred.DefaultRegistry(), chase.Options{ShareIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	before := eng.Stats()
	orders := d.Relation("Orders").Tuples
	a := d.MustAppend("Orders", orders[0].Values()...)
	b := d.MustAppend("Orders", orders[1].Values()...)
	other, _ := datagen.PaperExample()
	for _, c := range []struct {
		name  string
		batch []*relation.Tuple
	}{
		{"foreign tuple", other.Tuples()[:1]},
		{"nil entry", []*relation.Tuple{a, nil, b}},
		{"tuple loaded before New", []*relation.Tuple{d.Tuples()[0], a, b}},
		{"tuple listed twice", []*relation.Tuple{a, b, a}},
		{"appended tuple withheld", []*relation.Tuple{b}},
	} {
		if _, err := eng.InsertTuples(c.batch); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	if got := eng.Stats(); got != before {
		t.Errorf("refused batches changed the engine: stats %+v, were %+v", got, before)
	}
	if _, err := eng.InsertTuples([]*relation.Tuple{b, a}); err != nil {
		t.Fatalf("the appended tuples in another order: %v", err)
	}
	if _, err := eng.InsertTuples([]*relation.Tuple{a}); err == nil {
		t.Error("tuple of an earlier batch accepted")
	}
}

// TestInsertSeedsEnumerateOnce checks the epoch cut of the seed pass: no
// valuation is emitted twice across Run's pass and three InsertTuples
// batches — one holding several new tuples is seeded at the first of them
// in rank order only, and one a batch's pass emits is one no earlier pass
// could — on random instances where valuations with several new tuples
// occur.
func TestInsertSeedsEnumerateOnce(t *testing.T) {
	reg := mlpred.DefaultRegistry()
	multi, fromRun := 0, 0
	for seed := int64(500); seed < 508; seed++ {
		d, rules, err := datagen.RandomInstance(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		d2 := relation.NewDataset(d.DB)
		var held []*relation.Tuple
		for i, tt := range d.Tuples() {
			if i%3 == 1 {
				held = append(held, tt)
				continue
			}
			d2.MustAppend(d.DB.Schemas[tt.Rel].Name, tt.Values()...)
		}
		eng := modeDefault.engine(t, d2, rules, reg)
		var mu sync.Mutex
		epoch := relation.TID(math.MaxInt32) // Run's tuples count as old
		emitted := make(map[string]bool)
		var repeats []string
		eng.SetSeedHook(func(rule string, gids []relation.TID) {
			key := fmt.Sprint(rule, gids)
			fresh := 0
			for _, g := range gids {
				if g >= epoch {
					fresh++
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if emitted[key] {
				repeats = append(repeats, key)
			}
			emitted[key] = true
			if fresh > 1 {
				multi++
			}
		})
		eng.Run()
		fromRun += len(emitted)
		step := (len(held) + 2) / 3
		for lo := 0; lo < len(held); lo += step {
			epoch = relation.TID(d2.Size())
			var batch []*relation.Tuple
			for _, tt := range held[lo:min(lo+step, len(held))] {
				batch = append(batch, d2.MustAppend(d.DB.Schemas[tt.Rel].Name, tt.Values()...))
			}
			if _, err := eng.InsertTuples(batch); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if len(repeats) > 0 {
				t.Fatalf("seed %d: %d valuations seeded twice, first %s\nrules:\n%s",
					seed, len(repeats), repeats[0], rulesOf(rules))
			}
		}
	}
	if multi == 0 || fromRun == 0 {
		t.Fatalf("%d seeded valuations held two new tuples, %d came from Run: the instances test nothing", multi, fromRun)
	}
}
