package experiments

import (
	"fmt"
	"strings"

	"dcer/internal/chase"
	"dcer/internal/datagen"
	"dcer/internal/mlpred"
	"dcer/internal/provenance"
)

// CaseStudy reproduces Exp-4: it runs the chase engine with an unbounded
// justification log on the TPC-H workload and reports, per MRL, how many
// matches the rule derived and how deep its derivations reach — the analogue
// of the paper's discovered rules φ_a–φ_d, which span 2-3 tables, carry
// 4-8 relation atoms, and mix ML and id predicates. It also renders one
// full deep proof.
func CaseStudy(cfg Config) *Table {
	cfg = cfg.withDefaults()
	g := datagen.TPCH(datagen.TPCHOptions{Scale: cfg.Scale, Dup: 0.3, Seed: cfg.Seed})
	rules, err := g.Rules()
	if err != nil {
		panic(err)
	}
	log := provenance.NewLog(-1)
	eng, err := chase.New(g.D, rules, mlpred.DefaultRegistry(), chase.Options{ShareIndexes: true, Provenance: log})
	if err != nil {
		panic(err)
	}
	eng.Run()
	t := &Table{
		Title:  "Exp-4 case study: per-rule derivations on TPCH",
		Header: []string{"rule", "atoms", "matches", "max depth"},
	}
	// Depth of a fact = 1 + the max depth of its dependencies, in record
	// order (a valid derivation order). An ML dependency has its own
	// entry; a match dependency takes the deepest recorded match merged
	// into its class so far (a sound over-approximation: any of them may
	// be on the path joining the pair).
	entries := log.Entries()
	eq := eng.BaseEquivalence()
	classDepth := map[int]int{} // E_id root -> deepest match merged in
	mlDepth := map[provenance.FactID]int{}
	depth := make([]int, len(entries))
	count, maxDepth := map[string]int{}, map[string]int{}
	for i, en := range entries {
		d := 1
		for _, dep := range en.Deps {
			dd := mlDepth[dep]
			if dep.Kind == provenance.KindMatch {
				dd = classDepth[eq.Find(int(dep.A))]
			}
			d = max(d, dd+1)
		}
		depth[i] = d
		if f := en.Fact; f.Kind == provenance.KindMatch {
			ra, rb := eq.Find(int(f.A)), eq.Find(int(f.B))
			eq.Union(ra, rb)
			classDepth[eq.Find(ra)] = max(classDepth[ra], classDepth[rb], d)
		} else {
			mlDepth[f] = d
		}
		count[en.Rule]++
		maxDepth[en.Rule] = max(maxDepth[en.Rule], d)
	}
	for _, r := range rules {
		t.AddRow(r.Name, len(r.Vars), count[r.Name], maxDepth[r.Name])
	}

	// Append one rendered deep chain as a trailing "row" block.
	deepest := -1
	for i, en := range entries {
		if en.Fact.Kind == provenance.KindMatch && (deepest < 0 || depth[i] > depth[deepest]) {
			deepest = i
		}
	}
	if deepest >= 0 {
		f := entries[deepest].Fact
		proof, err := eng.Proof(f.A, f.B)
		if err != nil {
			panic(err)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "deepest derivation (%d levels): ", depth[deepest])
		for i, st := range proof {
			if i > 0 {
				b.WriteString(" -> ")
			}
			b.WriteString(st.Rule)
		}
		t.AddRow(b.String(), "", "", "")
	}
	return t
}
