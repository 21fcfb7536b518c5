// Package unionfind implements the id-equivalence relation E_id of the
// paper (Section V-A, data structure (3)): a disjoint-set forest with path
// compression and union by rank, keyed by dense integer ids.
//
// The chase engine uses one UnionFind over global tuple ids; two tuples
// match (t.id = s.id holds in Γ) iff they share a root. Transitivity of id
// predicates is therefore free.
package unionfind

// UnionFind is a disjoint-set forest over ids 0..n-1. The zero value is
// unusable; create with New. Grow extends the id space.
type UnionFind struct {
	parent []int32
	rank   []int8
}

// New creates a union-find over n singleton sets.
func New(n int) *UnionFind {
	u := &UnionFind{parent: make([]int32, n), rank: make([]int8, n)}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

// Len returns the size of the id space.
func (u *UnionFind) Len() int { return len(u.parent) }

// Grow extends the id space to at least n ids, adding singletons.
func (u *UnionFind) Grow(n int) {
	for len(u.parent) < n {
		u.parent = append(u.parent, int32(len(u.parent)))
		u.rank = append(u.rank, 0)
	}
}

// Parent returns the raw parent link of x without path compression. Unlike
// Find it never mutates the forest, so the health auditors can walk
// sampled parent chains on a quiesced structure without perturbing it.
func (u *UnionFind) Parent(x int) int { return int(u.parent[x]) }

// SetParent overwrites the raw parent link of x, bypassing union by rank.
// It exists for corruption drills: tests plant a cycle or an out-of-range
// link and assert the invariant auditors catch it. Any other use leaves
// the structure inconsistent.
func (u *UnionFind) SetParent(x, p int) { u.parent[x] = int32(p) }

// Find returns the canonical representative of x's set.
func (u *UnionFind) Find(x int) int {
	root := x
	for int(u.parent[root]) != root {
		root = int(u.parent[root])
	}
	// Path compression.
	for int(u.parent[x]) != root {
		x, u.parent[x] = int(u.parent[x]), int32(root)
	}
	return root
}

// Root returns the representative of x's set like Find, but without path
// compression: it writes nothing, so any number of goroutines may call it
// at once while no goroutine calls Find, Union or Grow.
func (u *UnionFind) Root(x int) int {
	for p := int(u.parent[x]); p != x; p = int(u.parent[x]) {
		x = p
	}
	return x
}

// Union merges the sets of a and b and reports whether a merge happened
// (false if they were already in the same set).
func (u *UnionFind) Union(a, b int) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = int32(ra)
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	return true
}

// Same reports whether a and b are in the same set.
func (u *UnionFind) Same(a, b int) bool { return u.Find(a) == u.Find(b) }

// Clone returns a deep copy of the structure.
func (u *UnionFind) Clone() *UnionFind {
	c := &UnionFind{
		parent: append([]int32(nil), u.parent...),
		rank:   append([]int8(nil), u.rank...),
	}
	return c
}
