package chase

import (
	"testing"

	"dcer/internal/datagen"
	"dcer/internal/mlpred"
)

// TestEnumerationAllocs is the allocation-regression guard for the
// enumeration inner loop: once Γ is saturated and the scratch buffers are
// grown, re-enumerating a rule (extend, candidatesFor, checkNewBinding,
// predict over warm feature bundles) must be allocation-free. Both the
// interpreter and the compiled-plan batch path are held to the same
// budget — the plan path's per-depth candidate scratch must be reused,
// not regrown. A feature-scored predict on its own is held to zero. The
// enumerations run on one context, as a pool worker's runs its tasks; a
// saturated Γ leaves them nothing to buffer.
func TestEnumerationAllocs(t *testing.T) {
	for _, mode := range []struct {
		name      string
		interpret bool
	}{
		{"plan", false},
		{"interpret", true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.2, Dup: 0.2, Seed: 7})
			rules, err := g.Rules()
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(g.D, rules, mlpred.DefaultRegistry(), Options{ShareIndexes: true})
			if err != nil {
				t.Fatal(err)
			}
			e.interpret = mode.interpret
			e.Deduce()
			c := &evalCtx{e: e}
			for _, br := range e.rules {
				avg := testing.AllocsPerRun(3, func() { e.enumerateRule(c, br, &br.orders[0]) })
				// The budget tolerates incidental growth (a map bucket split,
				// a posting append) but catches any per-valuation allocation:
				// these rules inspect hundreds to thousands of valuations per
				// pass.
				if avg > 16 {
					t.Errorf("rule %s: %.1f allocs per saturated enumeration, want ~0 (per-valuation allocation regressed)",
						br.r.Name, avg)
				}
				for i := range br.mls {
					m := &br.mls[i]
					as, bs := br.rels[m.pred.V1].TIDs(), br.rels[m.pred.V2].TIDs()
					ta, tb := as[0], bs[len(bs)-1]
					c.reset(br)
					c.predict(m, ta, tb) // build the two bundles
					if avg := testing.AllocsPerRun(100, func() { c.predict(m, ta, tb) }); avg != 0 {
						t.Errorf("rule %s: predict %s allocates %.1f per warm call, want 0", br.r.Name, m.pred.Model, avg)
					}
				}
			}
		})
	}
}
