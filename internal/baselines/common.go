// Package baselines reimplements the algorithmic cores of the eight
// comparison systems of the paper's evaluation (Section VI) plus the
// classic sorted-neighborhood windowing method. Each baseline keeps its
// defining limitation — a single pass of pairwise comparison within one
// table, no recursion, no cross-table correlation — which is exactly what
// the accuracy experiments contrast with deep and collective ER.
//
// All baselines implement Matcher and run per relation over the whole
// dataset.
package baselines

import (
	"sort"
	"strings"

	"dcer/internal/mlpred"
	"dcer/internal/relation"
)

// Matcher is a conventional pairwise ER algorithm.
type Matcher interface {
	Name() string
	// Match returns the predicted duplicate pairs over all relations.
	Match(d *relation.Dataset) [][2]relation.TID
}

// recordText concatenates a tuple's non-id string attributes: the
// schema-agnostic "record" view the single-table baselines compare.
func recordText(s *relation.Schema, t *relation.Tuple) string {
	var b strings.Builder
	for i, a := range s.Attrs {
		if i == s.IDAttr || a.Type != relation.TypeString {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(t.Val(i).Str)
	}
	return b.String()
}

// pair canonicalizes a tuple pair.
func pair(a, b *relation.Tuple) [2]relation.TID {
	x, y := a.GID, b.GID
	if y < x {
		x, y = y, x
	}
	return [2]relation.TID{x, y}
}

// tokenBlocks groups the tuples of d's relation ri by the tokens of their
// record text, dropping blocks larger than maxBlock (stop-word-like
// tokens).
func tokenBlocks(d *relation.Dataset, ri, maxBlock int) map[string][]*relation.Tuple {
	rel := d.Relations[ri]
	blocks := make(map[string][]*relation.Tuple)
	for _, t := range d.Relations[ri].Tuples {
		seen := make(map[string]bool)
		for _, tok := range mlpred.Tokenize(recordText(rel.Schema, t)) {
			if len(tok) < 2 || seen[tok] {
				continue
			}
			seen[tok] = true
			blocks[tok] = append(blocks[tok], t)
		}
	}
	for tok, ts := range blocks {
		if len(ts) > maxBlock {
			delete(blocks, tok)
		}
	}
	return blocks
}

// keyBlocks groups the tuples of d's relation ri by full attribute values
// (classic blocking keys), one block family per non-id attribute, dropping
// blocks larger than maxBlock.
func keyBlocks(d *relation.Dataset, ri, maxBlock int) [][]*relation.Tuple {
	rel := d.Relations[ri]
	var out [][]*relation.Tuple
	for ai := range rel.Schema.Attrs {
		if ai == rel.Schema.IDAttr {
			continue
		}
		groups := make(map[string][]*relation.Tuple)
		for _, t := range rel.Tuples {
			v := t.Val(ai)
			if v.IsZero() {
				continue
			}
			groups[v.Key()] = append(groups[v.Key()], t)
		}
		for _, g := range groups {
			if len(g) >= 2 && len(g) <= maxBlock {
				out = append(out, g)
			}
		}
	}
	return out
}

// candidatesFromBlocks enumerates the distinct candidate pairs of a set of
// blocks.
func candidatesFromBlocks(blocks [][]*relation.Tuple) [][2]*relation.Tuple {
	seen := make(map[[2]relation.TID]bool)
	var out [][2]*relation.Tuple
	for _, blk := range blocks {
		for i := 0; i < len(blk); i++ {
			for j := i + 1; j < len(blk); j++ {
				p := pair(blk[i], blk[j])
				if seen[p] {
					continue
				}
				seen[p] = true
				out = append(out, [2]*relation.Tuple{blk[i], blk[j]})
			}
		}
	}
	return out
}

// avgSimilarity is the Dedoop-style weighted-average matcher: the mean of
// per-attribute similarities (Jaro-Winkler on strings, exact match on
// numerics), ignoring the id attribute.
func avgSimilarity(s *relation.Schema, a, b *relation.Tuple) float64 {
	sum, cnt := 0.0, 0
	for i, attr := range s.Attrs {
		if i == s.IDAttr {
			continue
		}
		cnt++
		if attr.Type == relation.TypeString {
			sum += mlpred.JaroWinkler(a.Val(i).Str, b.Val(i).Str)
		} else if a.Val(i).Equal(b.Val(i)) {
			sum++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// sortPairs orders predicted pairs deterministically.
func sortPairs(ps [][2]relation.TID) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i][0] != ps[j][0] {
			return ps[i][0] < ps[j][0]
		}
		return ps[i][1] < ps[j][1]
	})
}
