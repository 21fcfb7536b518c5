package mlpred_test

import (
	"math"
	"testing"
	"testing/quick"

	"dcer/internal/mlpred"
	"dcer/internal/relation"
)

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"abc", "abc", 0},
		{"ab", "ba", 2}, // transposition = two edits
	}
	for _, c := range cases {
		if got := mlpred.Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinProperties(t *testing.T) {
	symmetric := func(a, b string) bool {
		return mlpred.Levenshtein(a, b) == mlpred.Levenshtein(b, a)
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Error("not symmetric:", err)
	}
	identity := func(a string) bool { return mlpred.Levenshtein(a, a) == 0 }
	if err := quick.Check(identity, nil); err != nil {
		t.Error("identity fails:", err)
	}
	triangle := func(a, b, c string) bool {
		ab, bc, ac := mlpred.Levenshtein(a, b), mlpred.Levenshtein(b, c), mlpred.Levenshtein(a, c)
		return ac <= ab+bc
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Error("triangle inequality fails:", err)
	}
}

func TestJaroWinkler(t *testing.T) {
	if got := mlpred.JaroWinkler("MARTHA", "MARHTA"); math.Abs(got-0.961) > 0.01 {
		t.Errorf("JaroWinkler(MARTHA, MARHTA) = %.3f, want ≈0.961", got)
	}
	if got := mlpred.JaroWinkler("", ""); got != 1 {
		t.Errorf("JW of empty strings = %v, want 1", got)
	}
	if got := mlpred.JaroWinkler("abc", ""); got != 0 {
		t.Errorf("JW vs empty = %v, want 0", got)
	}
	if got := mlpred.JaroWinkler("same", "same"); got != 1 {
		t.Errorf("JW of identical = %v", got)
	}
}

func TestSimilarityRanges(t *testing.T) {
	metrics := map[string]func(a, b string) float64{
		"LevenshteinSim": mlpred.LevenshteinSim,
		"Jaro":           mlpred.Jaro,
		"JaroWinkler":    mlpred.JaroWinkler,
		"Jaccard":        mlpred.Jaccard,
		"CosineTokens":   mlpred.CosineTokens,
		"AbbrevNameSim":  mlpred.AbbrevNameSim,
		"SurnameSim":     mlpred.SurnameSim,
	}
	f := func(a, b string) bool {
		for name, m := range metrics {
			v := m(a, b)
			if v < 0 || v > 1.0000001 || math.IsNaN(v) {
				t.Logf("%s(%q, %q) = %v out of range", name, a, b, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJaccard(t *testing.T) {
	if got := mlpred.Jaccard("a b c", "b c d"); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Jaccard = %v, want 0.5", got)
	}
	if got := mlpred.Jaccard("", ""); got != 1 {
		t.Errorf("Jaccard of empties = %v", got)
	}
	if got := mlpred.Jaccard("x", ""); got != 0 {
		t.Errorf("Jaccard vs empty = %v", got)
	}
}

func TestAbbrevNameSim(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"Ford Smith", "F. Smith", 1},
		{"Tony Brown", "T. Brown", 1},
		{"Ford Smith", "Ford Smith", 1},
		{"Ford Smith", "G. Smith", 0},
		{"Ford Smith", "F. Jones", 0},
		{"Smith", "Smith Jones", 0}, // different token counts
	}
	for _, c := range cases {
		if got := mlpred.AbbrevNameSim(c.a, c.b); got != c.want {
			t.Errorf("AbbrevNameSim(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSurnameSim(t *testing.T) {
	if got := mlpred.SurnameSim("J. Smith, A. Kumar", "John Smith, Anil Kumar"); got != 1 {
		t.Errorf("SurnameSim = %v, want 1", got)
	}
	if got := mlpred.SurnameSim("J. Smith", "A. Jones"); got != 0 {
		t.Errorf("SurnameSim = %v, want 0", got)
	}
}

func TestNGrams(t *testing.T) {
	gs := mlpred.NGrams("ab", 3)
	// "##ab##" -> ##a, #ab, ab#, b##
	if len(gs) != 4 {
		t.Errorf("NGrams = %v", gs)
	}
	if mlpred.NGrams("x", 0) != nil {
		t.Error("n=0 should yield nil")
	}
}

func TestEmbeddingProperties(t *testing.T) {
	a := mlpred.Embed("ThinkPad X1 Carbon", 64)
	if len(a) != 64 {
		t.Fatalf("dim = %d", len(a))
	}
	var norm float64
	for _, x := range a {
		norm += x * x
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Errorf("embedding not normalized: %v", norm)
	}
	if got := mlpred.EmbeddingSim("same text", "same text", 64); math.Abs(got-1) > 1e-9 {
		t.Errorf("self similarity = %v", got)
	}
	near := mlpred.EmbeddingSim("ThinkPad X1 Carbon 7th Gen", "ThinkPad X1 Carbon 7 Gen", 64)
	far := mlpred.EmbeddingSim("ThinkPad X1 Carbon 7th Gen", "Apple MacBook Air 13", 64)
	if near <= far {
		t.Errorf("embedding sim not discriminative: near=%v far=%v", near, far)
	}
}

func TestLogisticModelLearns(t *testing.T) {
	var examples []mlpred.Example
	names := []string{"Alpha Corp", "Bravo Industries", "Charlie Ltd", "Delta GmbH", "Echo SA", "Foxtrot Inc"}
	n := mlpredTestNoise{}
	for i, nm := range names {
		examples = append(examples, mlpred.Example{A: nm, B: n.typo(nm, i), Match: true})
		examples = append(examples, mlpred.Example{A: nm, B: names[(i+1)%len(names)], Match: false})
	}
	m := &mlpred.LogisticModel{}
	m.Fit(examples, 50, 0.5, 1e-4, 1)
	if acc := m.Accuracy(examples); acc < 0.9 {
		t.Errorf("training accuracy = %v, want ≥ 0.9", acc)
	}
	if !m.PredictPair("Alpha Corp", "Alpha C0rp") {
		t.Error("model rejects an obvious near-duplicate")
	}
	if m.PredictPair("Alpha Corp", "Zulu Enterprises") {
		t.Error("model accepts an obvious non-duplicate")
	}
}

type mlpredTestNoise struct{}

func (mlpredTestNoise) typo(s string, i int) string {
	b := []byte(s)
	pos := 1 + i%(len(b)-1)
	b[pos] = 'z'
	return string(b)
}

func TestClassifierRegistry(t *testing.T) {
	r := mlpred.DefaultRegistry()
	for _, name := range []string{"jaccard05", "jaccard07", "jaro085", "lev075", "lev080",
		"embed080", "embed090", "cosine07", "nameabbrev", "surnames06"} {
		if _, err := r.Get(name); err != nil {
			t.Errorf("stock classifier %q missing: %v", name, err)
		}
	}
	if _, err := r.Get("bogus"); err == nil {
		t.Error("unknown classifier resolved")
	}
	if names := r.Names(); len(names) < 10 {
		t.Errorf("Names() = %v", names)
	}
}

func TestSimClassifierAndFlatten(t *testing.T) {
	c := &mlpred.SimClassifier{ClassifierName: "t", Metric: mlpred.Jaccard, Threshold: 0.5}
	l := []relation.Value{relation.S("quick brown"), relation.S("fox")}
	r := []relation.Value{relation.S("quick brown fox")}
	if !c.Predict(l, r) {
		t.Error("flattened vectors should match")
	}
	if got := mlpred.FlattenValues(l); got != "quick brown fox" {
		t.Errorf("FlattenValues = %q", got)
	}
}

func TestCacheMemoization(t *testing.T) {
	calls := 0
	cl := &mlpred.SimClassifier{ClassifierName: "counted", Threshold: 0.5,
		Metric: func(a, b string) float64 { calls++; return 1 }}
	cache := mlpred.NewCache()
	l := []relation.Value{relation.S("x")}
	r := []relation.Value{relation.S("y")}
	cache.Predict(cl, l, r)
	cache.Predict(cl, l, r)
	cache.Predict(cl, r, l) // symmetric classifier: canonical key order
	if calls != 1 {
		t.Errorf("classifier called %d times, want 1", calls)
	}
	hits, misses := cache.Stats()
	if hits != 2 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses", hits, misses)
	}
}

func TestFuncClassifier(t *testing.T) {
	c := &mlpred.Func{ClassifierName: "f", Fn: func(l, r []relation.Value) bool {
		return l[0].Equal(r[0])
	}}
	if c.Name() != "f" {
		t.Error("name")
	}
	if !c.Predict([]relation.Value{relation.S("a")}, []relation.Value{relation.S("a")}) {
		t.Error("predict")
	}
}
