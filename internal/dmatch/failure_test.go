package dmatch_test

import (
	"testing"

	"dcer/internal/datagen"
	"dcer/internal/dmatch"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

// TestMoreWorkersThanBlocks runs with far more workers than the tiny
// dataset can fill: some workers get no block and must not wedge
// the BSP loop.
func TestMoreWorkersThanBlocks(t *testing.T) {
	d, l := datagen.PaperExample()
	rules, err := datagen.PaperRules(d.DB)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dmatch.Run(d, rules, mlpred.DefaultRegistry(), dmatch.Options{Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Same(l["t1"].GID, l["t3"].GID) {
		t.Error("deep match lost with 64 workers on 18 tuples")
	}
}

// TestNoValuations runs rules that match nothing.
func TestNoValuations(t *testing.T) {
	d, _ := datagen.PaperExample()
	rules, err := rule.ParseResolved(`
never: Customers(a) ^ Customers(b) ^ a.name = b.phone -> a.id = b.id
`, d.DB)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dmatch.Run(d, rules, mlpred.DefaultRegistry(), dmatch.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 || len(res.Classes()) != 0 {
		t.Errorf("no-op rules produced %d matches", len(res.Matches))
	}
}

// TestEmptyDataset runs against an empty database.
func TestEmptyDataset(t *testing.T) {
	db := datagen.PaperSchemas()
	d := relation.NewDataset(db)
	rules, err := datagen.PaperRules(db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dmatch.Run(d, rules, mlpred.DefaultRegistry(), dmatch.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Error("matches on empty data")
	}
}

// TestSkewedData plants a pathological hot value (every tuple shares one
// attribute) and checks the engine still terminates with the right answer
// and the partitioner keeps some balance.
func TestSkewedData(t *testing.T) {
	str := relation.TypeString
	db := relation.MustDatabase(relation.MustSchema("R", "k",
		relation.Attribute{Name: "k", Type: str},
		relation.Attribute{Name: "hot", Type: str},
		relation.Attribute{Name: "v", Type: str}))
	d := relation.NewDataset(db)
	var truth [][2]relation.TID
	for i := 0; i < 120; i++ {
		a := d.MustAppend("R", relation.S(key("a", i)), relation.S("HOT"), relation.S(key("val", i)))
		b := d.MustAppend("R", relation.S(key("b", i)), relation.S("HOT"), relation.S(key("val", i)))
		truth = append(truth, [2]relation.TID{a.GID, b.GID})
	}
	rules, err := rule.ParseResolved(`
r: R(a) ^ R(b) ^ a.hot = b.hot ^ a.v = b.v -> a.id = b.id
`, db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dmatch.Run(d, rules, mlpred.DefaultRegistry(), dmatch.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range truth {
		if !res.Same(p[0], p[1]) {
			t.Fatalf("skewed pair (%d,%d) lost", p[0], p[1])
		}
	}
	if got := len(res.Classes()); got != len(truth) {
		t.Errorf("classes = %d, want %d", got, len(truth))
	}
}

func key(prefix string, i int) string {
	return prefix + string(rune('A'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('0'+i%10))
}
