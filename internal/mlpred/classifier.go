package mlpred

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dcer/internal/relation"
)

// Classifier is an embedded ML predicate M(t[Ā], s[B̄]): a binary
// classifier over two attribute-value vectors. The chase engine treats
// classifiers as opaque PTIME oracles and memoizes their answers, exactly
// as the paper assumes for pretrained models.
type Classifier interface {
	// Name identifies the classifier within a Registry and in rule text.
	Name() string
	// Predict reports whether the two attribute-value vectors match.
	Predict(left, right []relation.Value) bool
}

// FlattenValues joins an attribute-value vector into one text for
// text-similarity classifiers.
func FlattenValues(vs []relation.Value) string {
	if len(vs) == 1 {
		return vs[0].String()
	}
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.String()
	}
	return strings.Join(parts, " ")
}

// FeatureClassifier is a Classifier that can additionally score
// precomputed Features bundles directly, so engines holding a FeatureStore
// skip re-tokenizing, re-embedding and re-joining strings on every call.
type FeatureClassifier interface {
	Classifier
	// PredictFeatures reports whether two precomputed feature bundles
	// match. Must agree with Predict on the same underlying texts.
	PredictFeatures(a, b *Features) bool
	// Symmetric reports whether Predict(x, y) == Predict(y, x) always
	// holds, so caches may canonicalize the argument order.
	Symmetric() bool
}

// SimClassifier thresholds a string-similarity metric. It is the
// fasttext-style semantic-similarity stand-in.
type SimClassifier struct {
	ClassifierName string
	Metric         func(a, b string) float64
	// FeatureMetric, when set, scores precomputed feature bundles (e.g.
	// JaccardFeatures) instead of re-deriving tokens/embeddings from the
	// flattened text; it must agree with Metric on the same texts. When
	// nil, PredictFeatures falls back to Metric over the cached texts.
	FeatureMetric func(a, b *Features) float64
	Threshold     float64
	// Decide, when set, answers ScoreFeatures(a, b) >= threshold exactly
	// and more cheaply than scoring (decide.go). Nil keeps the kernel, as
	// does a Calib, which wants the raw score of every call.
	Decide func(a, b *Features, threshold float64) bool
	// Calib, when set, records every raw score this classifier produces
	// (see Calibration). Nil — the default — costs one branch per call.
	Calib *Calibration
}

// Name implements Classifier.
func (c *SimClassifier) Name() string { return c.ClassifierName }

// Predict implements Classifier.
func (c *SimClassifier) Predict(left, right []relation.Value) bool {
	score := c.Score(left, right)
	if c.Calib != nil {
		c.Calib.Observe(score, score >= c.Threshold)
	}
	return score >= c.Threshold
}

// Score exposes the raw metric value, for baselines that rank candidates.
func (c *SimClassifier) Score(left, right []relation.Value) float64 {
	return c.Metric(FlattenValues(left), FlattenValues(right))
}

// ScoreFeatures is Score over precomputed feature bundles.
func (c *SimClassifier) ScoreFeatures(a, b *Features) float64 {
	if c.FeatureMetric != nil {
		return c.FeatureMetric(a, b)
	}
	return c.Metric(a.Text, b.Text)
}

// PredictFeatures implements FeatureClassifier.
func (c *SimClassifier) PredictFeatures(a, b *Features) bool {
	if c.Decide != nil && c.Calib == nil {
		return c.Decide(a, b, c.Threshold)
	}
	score := c.ScoreFeatures(a, b)
	if c.Calib != nil {
		c.Calib.Observe(score, score >= c.Threshold)
	}
	return score >= c.Threshold
}

// Symmetric implements FeatureClassifier: similarity metrics are
// symmetric (the string Cache has always assumed this for SimClassifier).
func (c *SimClassifier) Symmetric() bool { return true }

// LogisticClassifier wraps a trained LogisticModel as a predicate. It is
// the supervised-ER (DeepER-style) stand-in.
type LogisticClassifier struct {
	ClassifierName string
	Model          *LogisticModel
	// Calib, when set, records the model's match probabilities (see
	// Calibration). Nil — the default — costs one branch per call.
	Calib *Calibration
}

// Name implements Classifier.
func (c *LogisticClassifier) Name() string { return c.ClassifierName }

// threshold resolves the model's decision threshold (0 means 0.5).
func (c *LogisticClassifier) threshold() float64 {
	if c.Model.Threshold == 0 {
		return 0.5
	}
	return c.Model.Threshold
}

// Score returns the model's match probability for the pair.
func (c *LogisticClassifier) Score(left, right []relation.Value) float64 {
	return c.Model.Prob(PairFeatures(FlattenValues(left), FlattenValues(right)))
}

// ScoreFeatures is Score over precomputed feature bundles.
func (c *LogisticClassifier) ScoreFeatures(a, b *Features) float64 {
	return c.Model.Prob(PairFeaturesOf(a, b))
}

// Predict implements Classifier.
func (c *LogisticClassifier) Predict(left, right []relation.Value) bool {
	score := c.Score(left, right)
	if c.Calib != nil {
		c.Calib.Observe(score, score >= c.threshold())
	}
	return score >= c.threshold()
}

// PredictFeatures implements FeatureClassifier: the similarity-feature
// battery is computed from the precomputed bundles (token merges and dot
// products) instead of re-deriving every feature from raw strings.
func (c *LogisticClassifier) PredictFeatures(a, b *Features) bool {
	score := c.ScoreFeatures(a, b)
	if c.Calib != nil {
		c.Calib.Observe(score, score >= c.threshold())
	}
	return score >= c.threshold()
}

// Symmetric implements FeatureClassifier: every pair feature is symmetric
// in its arguments, so the model's decision is too.
func (c *LogisticClassifier) Symmetric() bool { return true }

// Func adapts a plain function to a Classifier; handy in tests.
type Func struct {
	ClassifierName string
	Fn             func(left, right []relation.Value) bool
}

// Name implements Classifier.
func (c *Func) Name() string { return c.ClassifierName }

// Predict implements Classifier.
func (c *Func) Predict(left, right []relation.Value) bool { return c.Fn(left, right) }

// Registry resolves classifier names appearing in rule text to
// implementations. Safe for concurrent reads after setup.
type Registry struct {
	mu          sync.RWMutex
	classifiers map[string]Classifier
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{classifiers: make(map[string]Classifier)}
}

// Register adds (or replaces) a classifier under its own name.
func (r *Registry) Register(c Classifier) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.classifiers[c.Name()] = c
}

// Get resolves a classifier by name.
func (r *Registry) Get(name string) (Classifier, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.classifiers[name]
	if !ok {
		return nil, fmt.Errorf("mlpred: no classifier %q registered", name)
	}
	return c, nil
}

// Names lists registered classifier names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.classifiers))
	for n := range r.classifiers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DefaultRegistry builds a registry with the stock classifiers used
// throughout the examples and experiments:
//
//	jaccard07, jaccard05  — token Jaccard at 0.7 / 0.5
//	jaro085               — Jaro-Winkler at 0.85
//	lev080                — normalized Levenshtein at 0.80
//	embed080, embed090    — hashed-embedding cosine at 0.80 / 0.90
//	cosine07              — token cosine at 0.7
//	nameabbrev            — abbreviated-person-name matcher
//
// Classifiers whose metric decomposes over per-text features carry a
// FeatureMetric so engines with a FeatureStore score by token merges and
// dot products; the rest (edit-distance-style metrics) still skip the
// per-call value flattening by reading the cached Features.Text. The
// Levenshtein and Jaccard thresholds carry an exact decider (decide.go).
func DefaultRegistry() *Registry {
	r := NewRegistry()
	r.Register(&SimClassifier{ClassifierName: "jaccard07", Metric: Jaccard, FeatureMetric: JaccardFeatures, Decide: JaccardAtLeast, Threshold: 0.7})
	r.Register(&SimClassifier{ClassifierName: "jaccard05", Metric: Jaccard, FeatureMetric: JaccardFeatures, Decide: JaccardAtLeast, Threshold: 0.5})
	r.Register(&SimClassifier{ClassifierName: "jaro085", Metric: JaroWinkler, Threshold: 0.85})
	r.Register(&SimClassifier{ClassifierName: "lev080", Metric: LevenshteinSim, Decide: LevenshteinAtLeast, Threshold: 0.8})
	r.Register(&SimClassifier{ClassifierName: "lev075", Metric: LevenshteinSim, Decide: LevenshteinAtLeast, Threshold: 0.75})
	r.Register(&SimClassifier{ClassifierName: "cosine07", Metric: CosineTokens, FeatureMetric: CosineTokensFeatures, Threshold: 0.7})
	r.Register(&SimClassifier{ClassifierName: "embed080",
		Metric:        func(a, b string) float64 { return EmbeddingSim(a, b, EmbeddingDim) },
		FeatureMetric: EmbeddingSimFeatures, Threshold: 0.8})
	r.Register(&SimClassifier{ClassifierName: "embed090",
		Metric:        func(a, b string) float64 { return EmbeddingSim(a, b, EmbeddingDim) },
		FeatureMetric: EmbeddingSimFeatures, Threshold: 0.9})
	r.Register(&SimClassifier{ClassifierName: "nameabbrev", Metric: AbbrevNameSim, Threshold: 0.5})
	r.Register(&SimClassifier{ClassifierName: "surnames06", Metric: SurnameSim, Threshold: 0.6})
	return r
}

// Cache memoizes classifier answers by (classifier, left text, right text).
// Keys include argument order; for known-symmetric classifiers the key is
// canonicalized (smaller text first) so each unordered pair is stored
// once. The chase engine memoizes by tuple id instead — feature bundles
// in the FeatureStore, opaque classifiers' answers in the PairCache; this
// string-keyed cache serves callers without stable tuple ids (naive
// oracle, proofs, discovery, soft chase).
type Cache struct {
	mu      sync.RWMutex
	answers map[string]bool
	hits    atomic.Int64
	misses  atomic.Int64
}

// NewCache creates an empty cache.
func NewCache() *Cache { return &Cache{answers: make(map[string]bool)} }

func cacheKey(name, a, b string) string {
	return name + "\x00" + a + "\x00" + b
}

// symmetricClassifier reports whether cl's answer is argument-order
// independent, so the cache key may be canonicalized.
func symmetricClassifier(cl Classifier) bool {
	if fc, ok := cl.(FeatureClassifier); ok {
		return fc.Symmetric()
	}
	return false
}

// Predict answers via the cache, calling the classifier on a miss.
func (c *Cache) Predict(cl Classifier, left, right []relation.Value) bool {
	a, b := FlattenValues(left), FlattenValues(right)
	if b < a && symmetricClassifier(cl) {
		a, b = b, a
	}
	key := cacheKey(cl.Name(), a, b)
	c.mu.RLock()
	ans, ok := c.answers[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return ans
	}
	ans = cl.Predict(left, right)
	c.misses.Add(1)
	c.mu.Lock()
	c.answers[key] = ans
	c.mu.Unlock()
	return ans
}

// Stats returns (hits, misses).
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
