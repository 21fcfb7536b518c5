package mqo

import (
	"fmt"
	"sync"
	"testing"

	"dcer/internal/relation"
)

// hasherFixture is a relation with one column per attribute type whose
// values repeat across rows (and, for strings, across the two string
// columns), so the memo is hit from every goroutine.
func hasherFixture() *relation.Dataset {
	a := func(n string, t relation.Type) relation.Attribute { return relation.Attribute{Name: n, Type: t} }
	db := relation.MustDatabase(relation.MustSchema("r", "id",
		a("id", relation.TypeString), a("s", relation.TypeString),
		a("i", relation.TypeInt), a("f", relation.TypeFloat)))
	d := relation.NewDataset(db)
	for row := 0; row < 6*512; row++ {
		d.MustAppend("r",
			relation.S(fmt.Sprintf("k%d", row)),
			relation.S(fmt.Sprintf("k%d", row%257)),
			relation.I(int64(row%101-50)),
			relation.F(float64(row%67)/4))
	}
	return d
}

// TestDenseHasherConcurrent drives one DenseHasher from 8 goroutines over
// shared values (run under -race in CI): every result must equal
// fnvHashValue, and the Computations/Lookups totals must equal those of
// the sequential Hasher fed the same requests — each distinct
// (function, value) pair is computed exactly once however the goroutines
// interleave.
func TestDenseHasherConcurrent(t *testing.T) {
	const goroutines, fns = 8, 3
	d := hasherFixture()
	rel := d.Relations[0]
	dense := NewDenseHasher(fns, d.Syms())
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]uint32, 512)
			// Staggered chunk order (the row count is a multiple of the
			// chunk), so goroutines meet on the same entries out of step.
			for c := 0; c < len(rel.Tuples); c += len(out) {
				lo := (c + g*len(out)) % len(rel.Tuples)
				tuples := rel.Tuples[lo : lo+len(out)]
				for fn := 0; fn < fns; fn++ {
					for attr, a := range rel.Schema.Attrs {
						dense.HashColumn(fn, a.Type, tuples[0].Col(attr), tuples, out)
						for i, tu := range tuples {
							if want := fnvHashValue(fn, tu.Val(attr)); out[i] != want {
								t.Errorf("fn %d attr %s row %d: hash %#x, fnvHashValue %#x", fn, a.Name, tu.Row, out[i], want)
								return
							}
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()

	seq := NewHasher()
	for g := 0; g < goroutines; g++ {
		for _, tu := range rel.Tuples {
			for fn := 0; fn < fns; fn++ {
				for attr := range rel.Schema.Attrs {
					seq.Hash(fn, tu.Val(attr))
				}
			}
		}
	}
	comp, look := dense.Counts()
	if comp != seq.Computations || look != seq.Lookups {
		t.Errorf("dense hasher counted %d computations / %d lookups, sequential Hasher %d / %d",
			comp, look, seq.Computations, seq.Lookups)
	}
}
