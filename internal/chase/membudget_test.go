package chase

import (
	"sort"
	"testing"

	"dcer/internal/datagen"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
)

// TestDepStoreByteBudget pins the eviction contract: the store sheds its
// oldest chunks to stay under the byte bound, the newest entries survive,
// and the byte account is what is actually resident.
func TestDepStoreByteBudget(t *testing.T) {
	s := NewDepStore(-1, satSet{}.sat)
	const perChunk = (depChunkWords - 1) / (depBodyOff + depLitWords) // single-literal deps
	const n = 10 * perChunk
	// Room for about five chunks next to the table and the watch heads.
	s.SetByteBudget(8 * depChunkBytes)
	for i := relation.TID(0); i < n; i++ {
		addDep(s, lit(i+n, i+n+1), lit(i, i+1))
	}
	if s.Len() >= n/2 || s.Len() < perChunk {
		t.Fatalf("Len = %d of %d, want a few chunks' worth under the byte budget", s.Len(), n)
	}
	if s.Evicted()+s.Dropped() != n-s.Len() {
		t.Fatalf("evicted %d + dropped %d, want %d shed", s.Evicted(), s.Dropped(), n-s.Len())
	}
	if s.MemBytes() <= 0 || s.MemBytes() > s.budget {
		t.Errorf("MemBytes = %d, want within (0, %d]", s.MemBytes(), s.budget)
	}
	if bytes, live := s.recount(); bytes != s.MemBytes() || live != s.Len() {
		t.Errorf("account %d bytes / %d deps, recount %d / %d", s.MemBytes(), s.Len(), bytes, live)
	}
	// The survivors must be the newest insertions: re-adding one is a
	// duplicate, re-adding the oldest is not.
	live := s.Len()
	for i := relation.TID(n - live); i < n; i++ {
		if addDep(s, lit(i+n, i+n+1), lit(i, i+1)); s.Len() != live {
			t.Fatalf("newest dep %d should have survived eviction", i)
		}
	}
	// Removing the bound lets the store grow again.
	s.SetByteBudget(0)
	addDep(s, lit(n, n+1), lit(0, 1))
	if s.Len() != live+1 {
		t.Error("the oldest dep survived eviction, or the unbounded store refused it")
	}
	// A budget nothing fits under drops every newcomer without allocating.
	z := NewDepStore(-1, satSet{}.sat)
	z.SetByteBudget(1)
	if addDep(z, lit(3, 4), lit(1, 2)) || z.Dropped() != 1 || z.MemBytes() != 0 {
		t.Errorf("1-byte budget: dropped %d, %d bytes resident", z.Dropped(), z.MemBytes())
	}
}

// TestDepStoreSlotRecycling checks that a chunk — the current one
// included — is freed with its last live dependency, its slot reused, and
// that stale records do not leak into new occupants.
func TestDepStoreSlotRecycling(t *testing.T) {
	sat := satSet{}
	s := NewDepStore(-1, sat.sat)
	addDep(s, lit(5, 6), lit(1, 2), lit(3, 4))
	sat.enforce(s, lit(1, 2))
	sat.enforce(s, lit(3, 4))
	fireAll(s)
	if s.Len() != 0 || s.cur != nil || s.MemBytes() != 5*int64(len(s.tags))+4*int64(cap(s.heads)) {
		t.Fatalf("emptied chunk not freed: Len %d, %d bytes", s.Len(), s.MemBytes())
	}
	addDep(s, lit(9, 10), lit(7, 8))
	if o := s.rec(s.heads[7]); len(s.cur.w) != 1+depSize(o[0]) ||
		unpackLit(o[depHdrWords:]) != lit(9, 10) || unpackLit(o[depBodyOff:]) != lit(7, 8) {
		t.Fatalf("reused slot carries a stale record: %v", s.cur.w)
	}
	// Fill two chunks, then fire the first one empty.
	const perChunk = (depChunkWords - 1) / (depBodyOff + depLitWords)
	for i := relation.TID(100); i < 100+2*perChunk; i++ {
		addDep(s, lit(i, i), lit(i, i+1))
	}
	first, before := s.chunks[0], s.MemBytes()
	sat.enforce(s, lit(7, 8))
	next := relation.TID(100)
	for ; first.live > 1; next++ {
		sat.enforce(s, lit(next, next+1))
		fireAll(s)
	}
	if s.chunks[0] != first || s.MemBytes() != before {
		t.Fatal("chunk freed while a dependency in it was alive")
	}
	sat.enforce(s, lit(next, next+1))
	fireAll(s)
	if s.chunks[0] != nil || s.MemBytes() != before-depChunkBytes {
		t.Fatalf("chunk not freed with its last dependency: %d bytes, was %d", s.MemBytes(), before)
	}
	for i := relation.TID(10000); s.chunks[0] == nil; i++ {
		addDep(s, lit(i, i), lit(i, i+1))
	}
	if bytes, live := s.recount(); bytes != s.MemBytes() || live != s.Len() {
		t.Errorf("account %d bytes / %d deps, recount %d / %d", s.MemBytes(), s.Len(), bytes, live)
	}
}

// TestMemBudgetGammaEquivalence is the spill-to-regeneration correctness
// check: a chase squeezed under a tight memory budget (H constantly
// shedding) must deduce exactly the same Γ as an unbounded run — only
// slower, via the update-driven re-evaluation path.
func TestMemBudgetGammaEquivalence(t *testing.T) {
	run := func(budget int64) ([]Fact, MemUsage, int) {
		g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.3, Dup: 0.3, Seed: 11})
		rules, err := g.Rules()
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(g.D, rules, mlpred.DefaultRegistry(), Options{
			ShareIndexes:   true,
			MemBudgetBytes: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Deduce()
		gm := e.Gamma()
		facts := append(append([]Fact(nil), gm.Matches...), gm.Validated...)
		sort.Slice(facts, func(i, j int) bool {
			a, b := facts[i], facts[j]
			if a.Kind != b.Kind {
				return a.Kind < b.Kind
			}
			if a.Model != b.Model {
				return a.Model < b.Model
			}
			if a.A != b.A {
				return a.A < b.A
			}
			return a.B < b.B
		})
		return facts, e.Mem(), e.H.Evicted()
	}
	unbounded, _, _ := run(0)
	// Budget: the dataset plus a little headroom, so H is squeezed hard
	// but the run itself fits.
	g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.3, Dup: 0.3, Seed: 11})
	base := g.D.MemBytes()
	bounded, mem, evicted := run(base + base/5)
	if evicted == 0 {
		t.Error("budget did not squeeze H: no deps evicted, equivalence check is vacuous")
	}
	if len(unbounded) == 0 {
		t.Fatal("unbounded run deduced nothing")
	}
	if len(bounded) != len(unbounded) {
		t.Fatalf("budgeted run deduced %d facts, unbounded %d", len(bounded), len(unbounded))
	}
	for i := range bounded {
		if bounded[i] != unbounded[i] {
			t.Fatalf("fact %d differs: budgeted %v, unbounded %v", i, bounded[i], unbounded[i])
		}
	}
	if mem.BudgetBytes == 0 {
		t.Error("budgeted run should report its budget")
	}
	if mem.Total() > mem.BudgetBytes+mem.BudgetBytes/10 {
		t.Errorf("accounted memory %d exceeds budget %d by more than the per-round slack",
			mem.Total(), mem.BudgetBytes)
	}
}
