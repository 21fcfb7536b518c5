package baselines

import (
	"dcer/internal/mlpred"
	"dcer/internal/relation"
)

// MLMatcher is the shared shape of the ML-based baselines: candidate
// generation by token blocking, then a binary decision on the record-text
// pair. DeepER, DeepMatcher and Ditto instantiate it with different
// deciders (see the DESIGN.md substitution table).
type MLMatcher struct {
	MatcherName string
	MaxBlock    int
	// Decide classifies a candidate record-text pair; used when
	// DecideFeatures is nil.
	Decide func(a, b string) bool
	// DecideFeatures classifies a candidate pair of precomputed feature
	// bundles served from a per-run FeatureStore, so each record is
	// tokenized and embedded once instead of once per candidate pair it
	// appears in.
	DecideFeatures func(a, b *mlpred.Features) bool
}

// Name implements Matcher.
func (m *MLMatcher) Name() string { return m.MatcherName }

// Match implements Matcher.
func (m *MLMatcher) Match(d *relation.Dataset) [][2]relation.TID {
	maxBlock := m.MaxBlock
	if maxBlock <= 0 {
		maxBlock = 50
	}
	var fs *mlpred.FeatureStore
	var aid uint32
	if m.DecideFeatures != nil {
		fs = mlpred.NewFeatureStore(0)
		aid = fs.AttrsID(nil)
	}
	var out [][2]relation.TID
	for ri, rel := range d.Relations {
		blocks := tokenBlocks(d, ri, maxBlock)
		var bl [][]*relation.Tuple
		for _, b := range blocks {
			bl = append(bl, b)
		}
		for _, c := range candidatesFromBlocks(bl) {
			var match bool
			if fs != nil {
				fa := fs.GetText(c[0].GID, aid, recordText(rel.Schema, c[0]))
				fb := fs.GetText(c[1].GID, aid, recordText(rel.Schema, c[1]))
				match = m.DecideFeatures(fa, fb)
			} else {
				match = m.Decide(recordText(rel.Schema, c[0]), recordText(rel.Schema, c[1]))
			}
			if match {
				out = append(out, pair(c[0], c[1]))
			}
		}
	}
	sortPairs(out)
	return out
}

// DeepERLike builds the DeepER stand-in: a trained logistic-regression
// classifier over the similarity-feature battery, with token blocking
// standing in for LSH blocking.
func DeepERLike(model *mlpred.LogisticModel) *MLMatcher {
	return &MLMatcher{
		MatcherName:    "DeepER",
		Decide:         model.PredictPair,
		DecideFeatures: model.PredictPairFeatures,
	}
}

// DeepMatcherLike builds the DeepMatcher stand-in: the same classifier
// family trained longer with a stricter decision threshold.
func DeepMatcherLike(model *mlpred.LogisticModel) *MLMatcher {
	return &MLMatcher{
		MatcherName:    "DeepMatcher",
		Decide:         model.PredictPair,
		DecideFeatures: model.PredictPairFeatures,
	}
}

// DittoLike builds the Ditto stand-in: a pretrained-representation
// matcher, i.e. hashed-embedding cosine with a fixed threshold (no
// task-specific training).
func DittoLike(threshold float64) *MLMatcher {
	return &MLMatcher{
		MatcherName: "Ditto",
		Decide: func(a, b string) bool {
			return mlpred.EmbeddingSim(a, b, mlpred.EmbeddingDim) >= threshold
		},
		DecideFeatures: func(a, b *mlpred.Features) bool {
			return mlpred.EmbeddingSimFeatures(a, b) >= threshold
		},
	}
}

// TrainPairModel fits a logistic model on labeled tuple pairs, rendering
// each tuple as its record text. epochs/lr/l2 follow mlpred.Fit.
func TrainPairModel(d *relation.Dataset, pairs []TrainingPair, epochs int, lr, l2 float64, seed int64) *mlpred.LogisticModel {
	var examples []mlpred.Example
	for _, p := range pairs {
		a, b := d.Tuple(p.A), d.Tuple(p.B)
		if a == nil || b == nil {
			continue
		}
		examples = append(examples, mlpred.Example{
			A:     recordText(d.SchemaOf(a), a),
			B:     recordText(d.SchemaOf(b), b),
			Match: p.Match,
		})
	}
	m := &mlpred.LogisticModel{}
	m.Fit(examples, epochs, lr, l2, seed)
	return m
}

// TrainingPair is a labeled tuple pair for baseline training.
type TrainingPair struct {
	A, B  relation.TID
	Match bool
}
