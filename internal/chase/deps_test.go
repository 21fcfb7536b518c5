package chase

import (
	"slices"
	"testing"

	"dcer/internal/relation"
)

func lit(a, b relation.TID) Literal { return Literal{Kind: FactMatch, A: a, B: b} }

// satSet is a settable validity oracle standing in for Γ.
type satSet map[Literal]bool

func (m satSet) sat(l Literal) bool { return m[l] }

// enforce makes l valid and wakes the dependencies watching its first
// tuple, as applyFactJ does for every new fact.
func (m satSet) enforce(s *DepStore, l Literal) {
	m[l] = true
	s.wake(l.A)
}

// fireAll fires what is ready and returns the heads, in firing order.
func fireAll(s *DepStore) (heads []Literal) {
	s.fireReady(false, func(h Literal, _ *justification) { heads = append(heads, h) })
	return heads
}

func addDep(s *DepStore, head Literal, body ...Literal) bool {
	return s.add(appendDep(nil, body, head), nil)
}

func TestDepStoreAddAndDedup(t *testing.T) {
	s := NewDepStore(10, satSet{}.sat)
	if !addDep(s, lit(3, 4), lit(1, 2)) || s.Len() != 1 {
		t.Fatal("first add failed")
	}
	if !addDep(s, lit(3, 4), lit(1, 2)) || s.Len() != 1 {
		t.Error("duplicate changed the store")
	}
	if s.Dropped() != 0 {
		t.Error("dedup counted as drop")
	}
	// Same words, other split between body and head: a different dependency.
	if !addDep(s, lit(1, 2), lit(3, 4)) || s.Len() != 2 {
		t.Error("l1 → l2 and l2 → l1 were deduplicated")
	}
}

func TestDepStoreCapacity(t *testing.T) {
	s := NewDepStore(2, satSet{}.sat)
	for i := relation.TID(0); i < 5; i++ {
		addDep(s, lit(i+10, i+11), lit(i, i+1))
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if s.Dropped() != 3 {
		t.Errorf("Dropped = %d, want 3", s.Dropped())
	}
	// Unbounded store.
	u := NewDepStore(-1, satSet{}.sat)
	for i := relation.TID(0); i < 100; i++ {
		addDep(u, lit(i+200, i+201), lit(i, i+1))
	}
	if u.Len() != 100 || u.Dropped() != 0 {
		t.Errorf("unbounded store: Len=%d Dropped=%d", u.Len(), u.Dropped())
	}
}

func TestDepStoreFire(t *testing.T) {
	sat := satSet{}
	s := NewDepStore(10, sat.sat)
	addDep(s, lit(5, 6), lit(1, 2), lit(3, 4))
	addDep(s, lit(5, 6), lit(7, 8)) // same head, other body
	addDep(s, lit(11, 12), lit(9, 10))

	sat.enforce(s, lit(1, 2))
	if fired := fireAll(s); len(fired) != 0 {
		t.Fatalf("fired with unsatisfied body: %v", fired)
	}
	sat.enforce(s, lit(3, 4))
	if fired := fireAll(s); len(fired) != 1 || fired[0] != lit(5, 6) {
		t.Fatalf("fired = %v, want the one dependency with head (5,6)", fired)
	}
	// The other dependency with head (5,6) goes the next time it is
	// visited; the third remains.
	sat.enforce(s, lit(5, 6))
	s.wake(7)
	if s.Len() != 1 {
		t.Errorf("Len after fire = %d, want 1", s.Len())
	}
	if fired := fireAll(s); len(fired) != 0 {
		t.Errorf("a dependency with an enforced head fired: %v", fired)
	}
}

// TestDepStoreFireOrder: ready dependencies come back oldest first however
// the wakes were ordered, and one that arrives with its body already valid
// is ready at once.
func TestDepStoreFireOrder(t *testing.T) {
	sat := satSet{lit(20, 21): true}
	s := NewDepStore(-1, sat.sat)
	addDep(s, lit(100, 101), lit(1, 2))
	addDep(s, lit(102, 103), lit(3, 4))
	addDep(s, lit(104, 105), lit(20, 21)) // already valid
	addDep(s, lit(106, 107), lit(20, 21), lit(5, 6))
	sat.enforce(s, lit(5, 6))
	sat.enforce(s, lit(3, 4))
	sat.enforce(s, lit(1, 2))
	heads := fireAll(s)
	want := []Literal{lit(100, 101), lit(102, 103), lit(104, 105), lit(106, 107)}
	if !slices.Equal(heads, want) {
		t.Errorf("fired %v, want insertion order %v", heads, want)
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d after firing everything", s.Len())
	}
}

// TestDepStoreRemoveHead: dependencies whose head is enforced by other
// means are discarded when next visited, without firing.
func TestDepStoreRemoveHead(t *testing.T) {
	sat := satSet{}
	s := NewDepStore(10, sat.sat)
	addDep(s, lit(5, 6), lit(1, 2))
	addDep(s, lit(5, 6), lit(3, 4))
	sat[lit(5, 6)] = true
	s.wake(1)
	s.wake(3)
	if s.Len() != 0 {
		t.Errorf("Len = %d after the head was enforced", s.Len())
	}
	if fired := fireAll(s); len(fired) != 0 {
		t.Errorf("discarded dependencies fired: %v", fired)
	}
}

func TestLiteralKeysDistinct(t *testing.T) {
	a := Literal{Kind: FactMatch, A: 1, B: 2}
	b := mlLit(internModel("m"), 1, 2)
	c := mlLit(internModel("n"), 1, 2)
	hash := func(head Literal, body ...Literal) uint32 {
		return appendDep(nil, body, head)[1]
	}
	if hash(a) == hash(b) || hash(b) == hash(c) {
		t.Error("literal hashes collide across kinds/models")
	}
	// Dependency fingerprints must separate body from head: l1 → l2 and
	// l2 → l1 are different dependencies.
	if hash(b, a) == hash(a, b) {
		t.Error("dep hashes ignore body/head position")
	}
	if unpackLit(packLit(nil, c)) != c {
		t.Error("literal does not survive packing")
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
