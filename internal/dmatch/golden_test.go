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
// "tfacc0.2/conc"): DMatch reaches the sequential Γ (Proposition 8).
//
// The counters were re-recorded when the workers came to own hypercube
// cells instead of per-rule tuple sets, with every digest unchanged and no
// counter above the value pinned before the change. As a tuple set, a rule
// scope forgot which variable a tuple was hashed for, so two workers
// enumerated and classified the same valuation: tp's 450 valuations at
// TPCH 0.5 were enumerated twice at 2 and at 4 workers (the ROADMAP's (m2)
// table shows the same at scale 6). A cell holds each valuation once, so
// valuations, plan predicate evaluations and classifier decisions fell
// (tpch0.5/w2 3715 → 3265 valuations, 2616 → 2166 decisions). A worker
// plans over the whole dataset's sizes scaled by the share of each
// variable's candidates its cell cut keeps, so extensions fell too
// (tpch0.5/w4 108276 → 101584). Drain rounds fell (tpch0.5/w2 28 → 18,
// tfacc0.2/w4 42 → 30) because a class merge that no rule's id predicate
// can seed a job from is no longer queued, in any engine: the round that
// expanded it into no job is gone. That more than offsets the rounds cells
// add, a valuation found on another worker than before reaching this one
// as a routed fact, one drain round later.
var goldenWork = map[string]struct {
	set                                                string
	valuations, extensions, planPreds, rounds, mlCalls int64
}{
	"tpch0.5/w2":        {"3b498b2c7ab0b630b1cf954525c7c735a8bb42855bb52a0ef28903c230704d37", 3265, 85042, 30151, 18, 2166},
	"tpch0.5/w3":        {"3b498b2c7ab0b630b1cf954525c7c735a8bb42855bb52a0ef28903c230704d37", 3269, 93739, 30016, 15, 2170},
	"tpch0.5/w4":        {"3b498b2c7ab0b630b1cf954525c7c735a8bb42855bb52a0ef28903c230704d37", 3341, 101584, 28879, 23, 2242},
	"tpch0.5/w2/nomqo":  {"3b498b2c7ab0b630b1cf954525c7c735a8bb42855bb52a0ef28903c230704d37", 3245, 84966, 30055, 18, 2146},
	"tfacc0.2/w2":       {"fd24f380968d1afa71cec22bdaf8f4e1873e2bd867da565a93ac2d601948f408", 1362, 29126, 8353, 9, 2506},
	"tfacc0.2/w3":       {"fd24f380968d1afa71cec22bdaf8f4e1873e2bd867da565a93ac2d601948f408", 1364, 33052, 8127, 14, 2508},
	"tfacc0.2/w4":       {"fd24f380968d1afa71cec22bdaf8f4e1873e2bd867da565a93ac2d601948f408", 1353, 38649, 8164, 30, 2497},
	"tfacc0.2/w2/nomqo": {"fd24f380968d1afa71cec22bdaf8f4e1873e2bd867da565a93ac2d601948f408", 1347, 28622, 8605, 18, 2491},
}

// TestDMatchGoldenWork runs DMatch without rebalancing (whose trigger is a
// timing) on the inputs of the chase's Γ goldens, at 2, 3 and 4 workers and
// without MQO sharing at 2, and holds the class set and the summed work
// counters to goldenWork. At 4 workers a worker hosts only part of TPCH.
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
	modes := []struct {
		n     int
		noMQO bool
	}{{2, false}, {3, false}, {4, false}, {2, true}}
	for _, gn := range gens {
		for _, m := range modes {
			key := fmt.Sprintf("%s/w%d", gn.name, m.n)
			if m.noMQO {
				key += "/nomqo"
			}
			g := gn.gen()
			rules, err := g.Rules()
			if err != nil {
				t.Fatal(err)
			}
			res, err := dmatch.Run(g.D, rules, mlpred.DefaultRegistry(), dmatch.Options{Workers: m.n, NoMQO: m.noMQO, RebalanceSkew: -1})
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

// TestDMatchRuleAloneWork runs each TPCH rule alone on TPCH 0.5, through
// one engine and through DMatch at 2 and 4 workers, and holds the workers'
// summed valuations and classifier decisions to the engine's: HyPart puts
// each valuation in exactly one hypercube cell, and exactly one worker owns
// that cell, so no valuation is enumerated or classified twice.
func TestDMatchRuleAloneWork(t *testing.T) {
	g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.5, Dup: 0.3, Seed: 1})
	rules, err := g.Rules()
	if err != nil {
		t.Fatal(err)
	}
	reg := mlpred.DefaultRegistry()
	for ri, r := range rules {
		alone := rules[ri : ri+1]
		eng, err := chase.New(g.D, alone, reg, chase.Options{ShareIndexes: true})
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		want := eng.Stats()
		for _, n := range []int{2, 4} {
			res, err := dmatch.Run(g.D, alone, reg, dmatch.Options{Workers: n, RebalanceSkew: -1})
			if err != nil {
				t.Fatalf("%s, %d workers: %v", r.Name, n, err)
			}
			var sum chase.Stats
			for _, st := range res.WorkerStats {
				sum.Add(st)
			}
			if sum.Valuations != want.Valuations || sum.MLCacheMiss != want.MLCacheMiss {
				t.Errorf("%s, %d workers: valuations/classifier decisions %d/%d summed over the workers, one engine %d/%d",
					r.Name, n, sum.Valuations, sum.MLCacheMiss, want.Valuations, want.MLCacheMiss)
			}
		}
	}
}
