package dmatch_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"dcer"
	"dcer/internal/chase"
	"dcer/internal/datagen"
	"dcer/internal/dmatch"
	"dcer/internal/mlpred"
)

// goldenWork pins, per input and worker count, the class-set digest DMatch
// reaches and the work its workers do, summed over the slots: valuations,
// extensions, plan predicate evaluations, drain rounds and classifier
// decisions (Stats.MLCacheMiss). The digests
// are the single engine's (internal/chase's goldenSets "tpch0.5/conc" and
// "tfacc0.2/conc"): DMatch reaches the sequential Γ (Proposition 8). The
// counters were recorded with every worker engine owning the indexes of
// its rule scopes, before the workers of a process came to probe one
// shared, read-only index set and filter its candidates by scope; that
// change moves no count.
var goldenWork = map[string]struct {
	set                                                string
	valuations, extensions, planPreds, rounds, mlCalls int64
}{
	"tpch0.5/w2":  {"3b498b2c7ab0b630b1cf954525c7c735a8bb42855bb52a0ef28903c230704d37", 3715, 92360, 32485, 28, 2616},
	"tpch0.5/w3":  {"3b498b2c7ab0b630b1cf954525c7c735a8bb42855bb52a0ef28903c230704d37", 3483, 96230, 30191, 21, 2384},
	"tfacc0.2/w2": {"fd24f380968d1afa71cec22bdaf8f4e1873e2bd867da565a93ac2d601948f408", 1362, 39155, 10323, 10, 2506},
	"tfacc0.2/w3": {"fd24f380968d1afa71cec22bdaf8f4e1873e2bd867da565a93ac2d601948f408", 1626, 50906, 12231, 20, 2931},
}

// TestDMatchGoldenWork runs DMatch without rebalancing (whose trigger is a
// timing) on the inputs of the chase's Γ goldens, at 2 and 3 workers, and
// holds the class set and the summed work counters to goldenWork.
func TestDMatchGoldenWork(t *testing.T) {
	gens := []struct {
		name string
		gen  func() *datagen.Generated
	}{
		{"tpch0.5", func() *datagen.Generated {
			return datagen.TPCH(datagen.TPCHOptions{Scale: 0.5, Dup: 0.3, Seed: 1})
		}},
		{"tfacc0.2", func() *datagen.Generated {
			return datagen.TFACC(datagen.TFACCOptions{Scale: 0.2, Dup: 0.3, Seed: 1})
		}},
	}
	for _, gn := range gens {
		for _, n := range []int{2, 3} {
			key := fmt.Sprintf("%s/w%d", gn.name, n)
			g := gn.gen()
			rules, err := g.Rules()
			if err != nil {
				t.Fatal(err)
			}
			res, err := dmatch.Run(g.D, rules, mlpred.DefaultRegistry(), dmatch.Options{Workers: n, RebalanceSkew: -1})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			var sum chase.Stats
			for _, st := range res.WorkerStats {
				sum.Add(st)
			}
			h := sha256.New()
			h.Write([]byte(dcer.CanonicalClasses(res.Classes())))
			h.Write([]byte{0})
			h.Write([]byte(canonFacts(res.Validated)))
			set := hex.EncodeToString(h.Sum(nil))
			t.Logf("\t%q: {%q, %d, %d, %d, %d, %d},", key, set, sum.Valuations, sum.Extensions, sum.PlanPreds, sum.Rounds, sum.MLCacheMiss)
			want, ok := goldenWork[key]
			if !ok {
				t.Errorf("%s: no golden entry", key)
				continue
			}
			if set != want.set {
				t.Errorf("%s: class-set digest %s, golden %s", key, set, want.set)
			}
			if sum.Valuations != want.valuations || sum.Extensions != want.extensions ||
				sum.PlanPreds != want.planPreds || sum.Rounds != want.rounds || sum.MLCacheMiss != want.mlCalls {
				t.Errorf("%s: valuations/extensions/plan preds/rounds/classifier decisions %d/%d/%d/%d/%d, golden %d/%d/%d/%d/%d", key,
					sum.Valuations, sum.Extensions, sum.PlanPreds, sum.Rounds, sum.MLCacheMiss,
					want.valuations, want.extensions, want.planPreds, want.rounds, want.mlCalls)
			}
		}
	}
}

// canonFacts renders a fact set in sorted order, as the chase's class-set
// digest renders the validated set.
func canonFacts(facts []chase.Fact) string {
	keys := make([]string, len(facts))
	for i, f := range facts {
		keys[i] = f.String()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}
