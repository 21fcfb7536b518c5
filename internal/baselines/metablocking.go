package baselines

import (
	"dcer/internal/mlpred"
	"dcer/internal/relation"
)

// metaBlockedCandidates implements meta-blocking (the SparkER/BLAST idea):
// build token blocks, weight each candidate pair by the number of blocks
// it co-occurs in, and prune pairs below the average weight, over d's
// relation ri.
func metaBlockedCandidates(d *relation.Dataset, ri, maxBlock int) [][2]*relation.Tuple {
	blocks := tokenBlocks(d, ri, maxBlock)
	weight := make(map[[2]relation.TID]int)
	byPair := make(map[[2]relation.TID][2]*relation.Tuple)
	for _, blk := range blocks {
		for i := 0; i < len(blk); i++ {
			for j := i + 1; j < len(blk); j++ {
				p := pair(blk[i], blk[j])
				weight[p]++
				byPair[p] = [2]*relation.Tuple{blk[i], blk[j]}
			}
		}
	}
	if len(weight) == 0 {
		return nil
	}
	total := 0
	for _, w := range weight {
		total += w
	}
	avg := float64(total) / float64(len(weight))
	var out [][2]*relation.Tuple
	for p, w := range weight {
		if float64(w) >= avg {
			out = append(out, byPair[p])
		}
	}
	return out
}

// SparkERLike is the SparkER stand-in: schema-agnostic token blocking with
// BLAST-style meta-blocking, then a similarity decision, executed in
// parallel over block partitions.
type SparkERLike struct {
	MaxBlock  int
	Threshold float64
	Workers   int
}

// Name implements Matcher.
func (m *SparkERLike) Name() string { return "SparkER" }

// Match implements Matcher.
func (m *SparkERLike) Match(d *relation.Dataset) [][2]relation.TID {
	maxBlock, th := m.MaxBlock, m.Threshold
	if maxBlock <= 0 {
		maxBlock = 50
	}
	if th == 0 {
		th = 0.55
	}
	var cands [][2]*relation.Tuple
	schemaOf := make(map[relation.TID]*relation.Schema)
	for ri, rel := range d.Relations {
		cs := metaBlockedCandidates(d, ri, maxBlock)
		for _, c := range cs {
			schemaOf[c[0].GID] = rel.Schema
		}
		cands = append(cands, cs...)
	}
	// Each record is tokenized once into the store (thread-safe, shared by
	// the parallel filter workers); pairs then score by a linear merge.
	fs := mlpred.NewFeatureStore(0)
	aid := fs.AttrsID(nil)
	decide := func(c [2]*relation.Tuple) bool {
		s := schemaOf[c[0].GID]
		fa := fs.GetText(c[0].GID, aid, recordText(s, c[0]))
		fb := fs.GetText(c[1].GID, aid, recordText(s, c[1]))
		return mlpred.CosineTokensFeatures(fa, fb) >= th
	}
	out := parallelFilter(cands, m.Workers, decide)
	sortPairs(out)
	return out
}
