package chase

import "testing"

// TestLiteralKeysDistinct: literals that differ in kind or model are
// different keys of the validated set, and an ML literal resolves its
// model name back.
func TestLiteralKeysDistinct(t *testing.T) {
	a := matchLit(1, 2)
	b := mlLit(internModel("m"), 1, 2)
	c := mlLit(internModel("n"), 1, 2)
	set := map[Literal]bool{a: true, b: true, c: true}
	if len(set) != 3 {
		t.Error("literal keys collide across kinds/models")
	}
	if set[mlLit(internModel("m"), 2, 1)] {
		t.Error("an ML literal lost its direction")
	}
	if b.ModelName() != "m" || a.ModelName() != "" {
		t.Errorf("model names %q, %q; want \"m\", \"\"", b.ModelName(), a.ModelName())
	}
}

func TestFactString(t *testing.T) {
	if MatchFact(2, 1).String() != "(1.id = 2.id)" {
		t.Errorf("MatchFact string: %s", MatchFact(2, 1))
	}
	if MLFact("m", 1, 2).String() != "m(1, 2)" {
		t.Errorf("MLFact string: %s", MLFact("m", 1, 2))
	}
	g := &Gamma{Matches: []Fact{MatchFact(1, 2)}, Validated: []Fact{MLFact("m", 1, 2)}}
	if g.Size() != 2 {
		t.Errorf("Gamma.Size = %d", g.Size())
	}
}
