// Package discovery mines MRLs from labeled data, reproducing the rule
// acquisition of the paper's experimental setup (Section VI): the denial-
// constraint discovery of Chu et al. [23] adapted to matching rules — a
// predicate space over attribute equalities and candidate ML predicates,
// evidence sets over labeled tuple pairs, and a lattice search for minimal
// preconditions with enough support and confidence.
//
// Scope note: like [23], the miner discovers bi-variable rules (two tuple
// variables over one relation); the paper extends it with a tuple-variable
// lattice for collective rules, which is out of scope here — the
// experiments use hand-written collective rules and mined single-relation
// rules side by side.
package discovery

import (
	"fmt"
	"sort"
	"strings"

	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

// LabeledPair is a labeled example for mining.
type LabeledPair struct {
	A, B  relation.TID
	Match bool
}

// Options tunes the miner.
type Options struct {
	// Relation is the target relation name.
	Relation string
	// MaxPredicates bounds the precondition size (lattice depth); 0 = 3.
	MaxPredicates int
	// MinSupport is the minimum number of positive pairs a rule must
	// cover; 0 = 3.
	MinSupport int
	// MinConfidence is the minimum precision of a rule on the labeled
	// pairs; 0 = 0.95.
	MinConfidence float64
	// Classifiers lists candidate ML predicate names (resolved against
	// the registry) to try on string attributes; nil = jaro085 and
	// jaccard05.
	Classifiers []string
	// MaxRules bounds the output; 0 = 10 (the paper discovers 10 rules
	// per labeled dataset).
	MaxRules int
	// SparseEvidence restricts the evidence set to the provided labeled
	// pairs only. By default the miner follows Chu et al. and builds
	// evidence over the full pair space of the relation (every pair not
	// labeled a match counts as a non-match), which is what keeps
	// coincidental predicates (e.g. equal year + equal genre) from
	// looking confident on a thin negative sample.
	SparseEvidence bool
	// MaxEvidencePairs caps the dense evidence set; pairs beyond the cap
	// are subsampled deterministically. 0 = 400000.
	MaxEvidencePairs int
}

// Mined is one discovered rule with its quality measures.
type Mined struct {
	Rule       *rule.Rule
	Text       string
	Support    int     // positive pairs covered
	Confidence float64 // precision over the labeled pairs
}

// predicate is one element of the predicate space.
type predicate struct {
	text string // DSL form over variables a/b
	eval func(x, y *relation.Tuple) bool
}

// Mine discovers MRLs for the target relation from the labeled pairs.
func Mine(d *relation.Dataset, pairs []LabeledPair, reg *mlpred.Registry, opts Options) ([]Mined, error) {
	relIdx := d.DB.SchemaIndex(opts.Relation)
	if relIdx < 0 {
		return nil, fmt.Errorf("discovery: unknown relation %q", opts.Relation)
	}
	schema := d.DB.Schemas[relIdx]
	if opts.MaxPredicates <= 0 {
		opts.MaxPredicates = 3
	}
	if opts.MinSupport <= 0 {
		opts.MinSupport = 3
	}
	if opts.MinConfidence <= 0 {
		opts.MinConfidence = 0.95
	}
	if opts.MaxRules <= 0 {
		opts.MaxRules = 10
	}
	classifiers := opts.Classifiers
	if classifiers == nil {
		classifiers = []string{"jaro085", "jaccard05"}
	}

	// Build the predicate space P.
	cache := mlpred.NewCache()
	var space []predicate
	for ai, attr := range schema.Attrs {
		if ai == schema.IDAttr {
			continue
		}
		space = append(space, predicate{
			text: fmt.Sprintf("a.%s = b.%s", attr.Name, attr.Name),
			eval: func(x, y *relation.Tuple) bool { return x.Val(ai).Equal(y.Val(ai)) },
		})
		if attr.Type != relation.TypeString {
			continue
		}
		for _, cn := range classifiers {
			cl, err := reg.Get(cn)
			if err != nil {
				return nil, err
			}
			space = append(space, predicate{
				text: fmt.Sprintf("%s(a.%s, b.%s)", cn, attr.Name, attr.Name),
				eval: func(x, y *relation.Tuple) bool {
					return cache.Predict(cl,
						[]relation.Value{x.Val(ai)}, []relation.Value{y.Val(ai)})
				},
			})
		}
	}

	// Evidence sets: per tuple pair, the bitset of satisfied predicates.
	type evidence struct {
		bits  []bool
		match bool
	}
	addEvidence := func(evs []evidence, x, y *relation.Tuple, match bool) []evidence {
		bits := make([]bool, len(space))
		for pi := range space {
			bits[pi] = space[pi].eval(x, y)
		}
		return append(evs, evidence{bits: bits, match: match})
	}
	var evs []evidence
	if opts.SparseEvidence {
		for _, p := range pairs {
			x, y := d.Tuple(p.A), d.Tuple(p.B)
			if x == nil || y == nil || x.Rel != relIdx || y.Rel != relIdx {
				continue
			}
			evs = addEvidence(evs, x, y, p.Match)
		}
	} else {
		// Dense evidence over the full pair space (Chu et al.): the
		// labeled positives are matches, everything else is not.
		posSet := make(map[[2]relation.TID]bool)
		for _, p := range pairs {
			if !p.Match {
				continue
			}
			a, b := p.A, p.B
			if b < a {
				a, b = b, a
			}
			posSet[[2]relation.TID{a, b}] = true
		}
		if len(posSet) == 0 {
			return nil, fmt.Errorf("discovery: no positive pairs over relation %q", opts.Relation)
		}
		tuples := d.Relations[relIdx].Tuples
		maxPairs := opts.MaxEvidencePairs
		if maxPairs <= 0 {
			maxPairs = 400000
		}
		total := len(tuples) * (len(tuples) - 1) / 2
		stride := 1
		if total > maxPairs {
			stride = total/maxPairs + 1
		}
		count := 0
		for i := 0; i < len(tuples); i++ {
			for j := i + 1; j < len(tuples); j++ {
				a, b := tuples[i].GID, tuples[j].GID
				if b < a {
					a, b = b, a
				}
				isPos := posSet[[2]relation.TID{a, b}]
				count++
				// Keep every positive; subsample the negatives.
				if !isPos && stride > 1 && count%stride != 0 {
					continue
				}
				evs = addEvidence(evs, tuples[i], tuples[j], isPos)
			}
		}
	}
	if len(evs) == 0 {
		return nil, fmt.Errorf("discovery: no labeled pairs over relation %q", opts.Relation)
	}

	// Lattice search over predicate combinations, smallest first; keep
	// combinations meeting support+confidence whose strict subsets do not
	// (minimality, as in the minimal set covers of [23]).
	measure := func(combo []int) (support int, conf float64) {
		pos, neg := 0, 0
		for _, ev := range evs {
			all := true
			for _, pi := range combo {
				if !ev.bits[pi] {
					all = false
					break
				}
			}
			if !all {
				continue
			}
			if ev.match {
				pos++
			} else {
				neg++
			}
		}
		if pos+neg == 0 {
			return 0, 0
		}
		return pos, float64(pos) / float64(pos+neg)
	}
	var accepted [][]int
	isSupersetOfAccepted := func(combo []int) bool {
		in := make(map[int]bool, len(combo))
		for _, pi := range combo {
			in[pi] = true
		}
		for _, acc := range accepted {
			all := true
			for _, pi := range acc {
				if !in[pi] {
					all = false
					break
				}
			}
			if all {
				return true
			}
		}
		return false
	}
	var results []Mined
	var combo []int
	// Breadth-first over sizes so smaller (more general) rules win first.
	for size := 1; size <= opts.MaxPredicates && len(results) < opts.MaxRules; size++ {
		var bfs func(start int, need int)
		bfs = func(start, need int) {
			if len(results) >= opts.MaxRules {
				return
			}
			if need == 0 {
				if isSupersetOfAccepted(combo) {
					return
				}
				support, conf := measure(combo)
				if support >= opts.MinSupport && conf >= opts.MinConfidence {
					acc := append([]int(nil), combo...)
					accepted = append(accepted, acc)
					results = append(results, buildMined(d.DB, opts.Relation, space, acc, len(results), support, conf))
				}
				return
			}
			for pi := start; pi <= len(space)-need; pi++ {
				combo = append(combo, pi)
				bfs(pi+1, need-1)
				combo = combo[:len(combo)-1]
			}
		}
		bfs(0, size)
	}
	sort.SliceStable(results, func(i, j int) bool {
		if results[i].Support != results[j].Support {
			return results[i].Support > results[j].Support
		}
		return results[i].Confidence > results[j].Confidence
	})
	if len(results) > opts.MaxRules {
		results = results[:opts.MaxRules]
	}
	return results, nil
}

func buildMined(db *relation.Database, relName string, space []predicate, combo []int, seq, support int, conf float64) Mined {
	var preds []string
	for _, pi := range combo {
		preds = append(preds, space[pi].text)
	}
	name := fmt.Sprintf("mined_%s_%d", strings.ToLower(relName), seq)
	text := fmt.Sprintf("%s: %s(a) ^ %s(b) ^ %s -> a.id = b.id",
		name, relName, relName, strings.Join(preds, " ^ "))
	rules, err := rule.Parse(text)
	if err != nil {
		panic(fmt.Sprintf("discovery: generated unparseable rule %q: %v", text, err))
	}
	if err := rules[0].Resolve(db); err != nil {
		panic(fmt.Sprintf("discovery: generated unresolvable rule %q: %v", text, err))
	}
	return Mined{Rule: rules[0], Text: text, Support: support, Confidence: conf}
}
