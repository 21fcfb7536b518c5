package baselines

import (
	"dcer/internal/mlpred"
	"dcer/internal/relation"
)

// DedoopLike is the Dedoop stand-in: classic blocking on attribute-value
// keys, then weighted-average similarity matching within blocks. A single
// pass over a single table — no recursion, no cross-table correlation.
type DedoopLike struct {
	MaxBlock  int
	Threshold float64
}

// Name implements Matcher.
func (m *DedoopLike) Name() string { return "Dedoop" }

// Match implements Matcher.
func (m *DedoopLike) Match(d *relation.Dataset) [][2]relation.TID {
	maxBlock, th := m.MaxBlock, m.Threshold
	if maxBlock <= 0 {
		maxBlock = 50
	}
	if th == 0 {
		th = 0.88
	}
	var out [][2]relation.TID
	for ri, rel := range d.Relations {
		for _, c := range candidatesFromBlocks(keyBlocks(d, ri, maxBlock)) {
			if avgSimilarity(rel.Schema, c[0], c[1]) >= th {
				out = append(out, pair(c[0], c[1]))
			}
		}
	}
	sortPairs(out)
	return out
}

// ERBloxLike is the ERBlox stand-in: matching dependencies supply the
// blocking keys (equality on key attributes), and an ML classifier makes
// the final match decision — the hybrid design of Bahmani et al.
type ERBloxLike struct {
	Model    *mlpred.LogisticModel
	MaxBlock int
}

// Name implements Matcher.
func (m *ERBloxLike) Name() string { return "ERBlox" }

// Match implements Matcher.
func (m *ERBloxLike) Match(d *relation.Dataset) [][2]relation.TID {
	maxBlock := m.MaxBlock
	if maxBlock <= 0 {
		maxBlock = 50
	}
	var out [][2]relation.TID
	for ri, rel := range d.Relations {
		for _, c := range candidatesFromBlocks(keyBlocks(d, ri, maxBlock)) {
			a := recordText(rel.Schema, c[0])
			b := recordText(rel.Schema, c[1])
			if m.Model.PredictPair(a, b) {
				out = append(out, pair(c[0], c[1]))
			}
		}
	}
	sortPairs(out)
	return out
}

// JedAILike is the JedAI stand-in: non-learning, structure-agnostic ER —
// token blocking, meta-blocking pruning, and a Jaccard decision on record
// text.
type JedAILike struct {
	MaxBlock  int
	Threshold float64
}

// Name implements Matcher.
func (m *JedAILike) Name() string { return "JedAI" }

// Match implements Matcher.
func (m *JedAILike) Match(d *relation.Dataset) [][2]relation.TID {
	maxBlock, th := m.MaxBlock, m.Threshold
	if maxBlock <= 0 {
		maxBlock = 50
	}
	if th == 0 {
		th = 0.6
	}
	var out [][2]relation.TID
	for ri, rel := range d.Relations {
		for _, c := range metaBlockedCandidates(d, ri, maxBlock) {
			a := recordText(rel.Schema, c[0])
			b := recordText(rel.Schema, c[1])
			if mlpred.Jaccard(a, b) >= th {
				out = append(out, pair(c[0], c[1]))
			}
		}
	}
	sortPairs(out)
	return out
}
