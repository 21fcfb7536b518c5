package unionfind_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dcer/internal/unionfind"
)

// sets counts the disjoint sets of u: the ids that are their own root.
func sets(u *unionfind.UnionFind) int {
	n := 0
	for i := range u.Len() {
		if u.Root(i) == i {
			n++
		}
	}
	return n
}

func TestBasics(t *testing.T) {
	u := unionfind.New(5)
	if u.Len() != 5 || sets(u) != 5 {
		t.Fatalf("fresh: Len=%d sets=%d", u.Len(), sets(u))
	}
	if !u.Union(0, 1) {
		t.Error("first union reported no-op")
	}
	if u.Union(1, 0) {
		t.Error("repeat union reported merge")
	}
	if !u.Same(0, 1) || u.Same(0, 2) {
		t.Error("Same wrong")
	}
	u.Union(2, 3)
	u.Union(1, 3) // transitivity 0-1-3-2
	if !u.Same(0, 2) {
		t.Error("transitivity broken")
	}
	if sets(u) != 2 { // {0,1,2,3}, {4}
		t.Errorf("sets = %d, want 2", sets(u))
	}
}

func TestGrow(t *testing.T) {
	u := unionfind.New(2)
	u.Grow(5)
	if u.Len() != 5 || sets(u) != 5 {
		t.Errorf("after Grow: Len=%d sets=%d", u.Len(), sets(u))
	}
	u.Union(0, 4)
	if !u.Same(0, 4) {
		t.Error("grown ids not usable")
	}
	u.Grow(3) // shrink is a no-op
	if u.Len() != 5 {
		t.Error("Grow shrank")
	}
}

func TestClone(t *testing.T) {
	u := unionfind.New(4)
	u.Union(0, 1)
	c := u.Clone()
	c.Union(2, 3)
	if u.Same(2, 3) {
		t.Error("clone mutated the original")
	}
	if !c.Same(0, 1) {
		t.Error("clone lost state")
	}
}

// TestParentSetParent covers the raw-link accessors the health auditors
// walk: Parent never compresses paths, and SetParent plants arbitrary
// links (the corruption-drill hook) without touching any other link.
func TestParentSetParent(t *testing.T) {
	u := unionfind.New(6)
	for i := 0; i < 6; i++ {
		if u.Parent(i) != i {
			t.Fatalf("fresh Parent(%d) = %d, want self", i, u.Parent(i))
		}
	}

	// Build a two-level chain 0 -> 1 -> 2 via rank: after Union(0,1) one
	// of the two roots the other; union that root with 2's set.
	u.Union(0, 1)
	root01 := u.Parent(0)
	if u.Parent(1) != root01 && u.Parent(root01) != root01 {
		t.Fatalf("Union(0,1) left no common root: parents %d, %d", u.Parent(0), u.Parent(1))
	}
	child := 0
	if root01 == 0 {
		child = 1
	}
	u.Union(root01, 2)
	deepRoot := u.Parent(root01)
	// Parent on the chain's leaf must not compress: the leaf still points
	// at the intermediate node, and repeated calls see the same link.
	if deepRoot != root01 {
		if u.Parent(child) != root01 {
			t.Fatalf("Parent compressed the chain: Parent(%d) = %d, want %d", child, u.Parent(child), root01)
		}
		if u.Find(child) != deepRoot {
			t.Fatalf("Find(%d) = %d, want root %d", child, u.Find(child), deepRoot)
		}
	}

	// SetParent writes x's link and nothing else.
	u.SetParent(4, 5)
	if u.Parent(4) != 5 {
		t.Fatalf("SetParent(4,5) then Parent(4) = %d", u.Parent(4))
	}
	if u.Parent(5) != 5 {
		t.Errorf("SetParent(4,5) moved Parent(5) to %d", u.Parent(5))
	}
	// An out-of-range plant is stored verbatim for the auditors to find.
	u.SetParent(3, 17)
	if u.Parent(3) != 17 {
		t.Errorf("out-of-range SetParent(3,17) then Parent(3) = %d", u.Parent(3))
	}
}

// TestRootDoesNotCompress builds a deep chain by union by rank and checks
// that Root answers what Find answers on every id while it leaves every
// parent link as it was, which Find then shortens.
func TestRootDoesNotCompress(t *testing.T) {
	const n = 16
	u := unionfind.New(n)
	for step := 1; step < n; step *= 2 {
		for i := 0; i+step < n; i += 2 * step {
			u.Union(i, i+step)
		}
	}
	links := func() []int {
		ps := make([]int, n)
		for i := range ps {
			ps[i] = u.Parent(i)
		}
		return ps
	}
	before := links()
	clone := u.Clone()
	for i := range n {
		if got, want := u.Root(i), clone.Find(i); got != want {
			t.Errorf("Root(%d) = %d, Find says %d", i, got, want)
		}
	}
	if !slices.Equal(links(), before) {
		t.Fatalf("Root rewrote parent links: %v -> %v", before, links())
	}
	for i := range n {
		u.Find(i)
	}
	if slices.Equal(links(), before) {
		t.Errorf("a chain of %d unions left Find nothing to compress: the check above proves nothing", n-1)
	}
}

// TestEquivalenceProperties checks that a random sequence of unions yields
// an equivalence relation identical to a naive set-merging reference.
func TestEquivalenceProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 40
		u := unionfind.New(n)
		ref := make([]int, n) // ref[i] = naive set label
		for i := range ref {
			ref[i] = i
		}
		relabel := func(from, to int) {
			for i := range ref {
				if ref[i] == from {
					ref[i] = to
				}
			}
		}
		for k := 0; k < 60; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			merged := u.Union(a, b)
			if merged == (ref[a] == ref[b]) {
				return false // Union's report must match the reference
			}
			relabel(ref[a], ref[b])
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if u.Same(i, j) != (ref[i] == ref[j]) {
					return false
				}
			}
		}
		// The roots must be as many as the distinct labels.
		labels := map[int]bool{}
		for _, l := range ref {
			labels[l] = true
		}
		return sets(u) == len(labels)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
