package mlpred_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dcer/internal/datagen"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
)

func bundleOf(s string) *mlpred.Features {
	return mlpred.ComputeFeatures([]relation.Value{relation.S(s)}, 0)
}

// checkDeciders holds every classifier of DefaultRegistry to its contract
// on one pair, in both argument orders: the decision PredictFeatures takes
// (a decider's, where the classifier has one) is ScoreFeatures ≥ Threshold.
// th additionally drives the two deciders directly, at a threshold the
// registry does not use.
func checkDeciders(t *testing.T, reg *mlpred.Registry, a, b string, th float64) {
	t.Helper()
	fa, fb := bundleOf(a), bundleOf(b)
	for _, p := range [][2]*mlpred.Features{{fa, fb}, {fb, fa}} {
		for _, name := range reg.Names() {
			cl, _ := reg.Get(name)
			sc := cl.(*mlpred.SimClassifier)
			score := sc.ScoreFeatures(p[0], p[1])
			if got, want := sc.PredictFeatures(p[0], p[1]), score >= sc.Threshold; got != want {
				t.Errorf("%s(%q, %q): decided %v, score %v against threshold %v", name, p[0].Text, p[1].Text, got, score, sc.Threshold)
			}
		}
		if got, want := mlpred.LevenshteinAtLeast(p[0], p[1], th), mlpred.LevenshteinSim(p[0].Text, p[1].Text) >= th; got != want {
			t.Errorf("LevenshteinAtLeast(%q, %q, %v) = %v, kernel says %v", p[0].Text, p[1].Text, th, got, want)
		}
		if got, want := mlpred.JaccardAtLeast(p[0], p[1], th), mlpred.JaccardFeatures(p[0], p[1]) >= th; got != want {
			t.Errorf("JaccardAtLeast(%q, %q, %v) = %v, kernel says %v", p[0].Text, p[1].Text, th, got, want)
		}
	}
}

// edited returns s after d edits at spread-out positions: substitutions,
// with every third edit a deletion or an insertion so lengths drift too.
func edited(s string, d int, rng *rand.Rand) string {
	r := []rune(s)
	for e := 0; e < d && len(r) > 0; e++ {
		i := (e*len(r)/max(d, 1) + rng.Intn(2)) % len(r)
		switch e % 3 {
		case 0, 1:
			r[i] = 'A' + rune(rng.Intn(26)) // upper case: never equal to the lower-case original
		default:
			if rng.Intn(2) == 0 {
				r = append(r[:i], r[i+1:]...)
			} else {
				r = append(r[:i], append([]rune{'#'}, r[i:]...)...)
			}
		}
	}
	return string(r)
}

// decidePairs is the differential test's table and the fuzz target's seed
// corpus: the strings of the random instances, near-duplicates built one
// edit / one token either side of every registered threshold (the review
// band, where a flipped decision hides), empty texts, non-ASCII texts (the
// rune path of Levenshtein), and texts of levStack (128) bytes and beyond.
func decidePairs() [][2]string {
	rng := rand.New(rand.NewSource(22))
	var pairs [][2]string
	seen := map[string]bool{}
	var vals []string
	for seed := int64(0); seed < 6; seed++ {
		d, _, err := datagen.RandomInstance(seed)
		if err != nil {
			panic(err)
		}
		for _, tt := range d.Tuples() {
			for _, v := range tt.Values() {
				if !seen[v.Str] {
					seen[v.Str] = true
					vals = append(vals, v.Str)
				}
			}
		}
	}
	for i, a := range vals {
		for _, b := range vals[i:] {
			pairs = append(pairs, [2]string{a, b})
		}
	}
	letters := func(n int, alphabet string) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		return sb.String()
	}
	for _, base := range []string{
		letters(4, "abc"), letters(5, "abcdefgh"), letters(10, "abcdefgh"), letters(17, "abcdefgh0123456789"),
		letters(20, "ab"), letters(40, "abcdefgh"), letters(127, "abcdefgh"), letters(128, "abcdefgh"),
		letters(131, "abcdefgh"), letters(260, "abcdefgh"),
		"naïve café señor", "日本語のテキストです", strings.Repeat("é", 70), "ünïcödé " + letters(130, "abc"),
	} {
		n := len([]rune(base))
		for _, th := range []float64{0.75, 0.8} {
			k := int((1 - th) * float64(n))
			for d := max(k-1, 0); d <= k+2; d++ {
				pairs = append(pairs, [2]string{base, edited(base, d, rng)})
			}
		}
		pairs = append(pairs, [2]string{base, ""}, [2]string{base, base}, [2]string{base, base[:len(base)/2]})
	}
	for _, n := range []int{1, 2, 3, 4, 7, 10, 25} {
		for _, m := range []int{1, 2, 3, 5, 10, 30} {
			for shared := 0; shared <= min(n, m); shared++ {
				var a, b []string
				for i := 0; i < n; i++ {
					a = append(a, fmt.Sprintf("t%d", i))
				}
				for i := 0; i < m; i++ {
					if i < shared {
						b = append(b, fmt.Sprintf("t%d", i))
					} else {
						b = append(b, fmt.Sprintf("u%d", i))
					}
				}
				rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
				pairs = append(pairs, [2]string{strings.Join(a, " "), strings.Join(b, ", ")})
			}
		}
	}
	return append(pairs, [2]string{"", ""}, [2]string{"", "x"}, [2]string{" ,;", "..."}, [2]string{"a a a b", "a b b"})
}

// TestDecidersMatchKernels is the deciders' contract, decision ≡ Score ≥
// Threshold, over the whole table and a sweep of thresholds — among them
// the degenerate ones (≤ 0, 1, above 1, −1 where Jaccard's estimate divides
// by zero).
func TestDecidersMatchKernels(t *testing.T) {
	reg := mlpred.DefaultRegistry()
	ths := []float64{0.5, 0.7, 0.75, 0.8, 0, 1, 1.5, -1, 0.3333333333333333, 0.9}
	for i, p := range decidePairs() {
		checkDeciders(t, reg, p[0], p[1], ths[i%len(ths)])
	}
}

// TestDecidersSkippedUnderCalibration pins that a classifier carrying a
// Calibration keeps its kernel: every call records its raw score.
func TestDecidersSkippedUnderCalibration(t *testing.T) {
	reg := mlpred.DefaultRegistry()
	calibs := reg.EnableCalibration()
	pairs := decidePairs()[:200]
	for _, name := range []string{"lev080", "jaccard05"} {
		cl, _ := reg.Get(name)
		if mlpred.CalibrationOf(cl) != calibs[name] {
			t.Fatalf("%s: CalibrationOf does not return the attached calibration", name)
		}
		for _, p := range pairs {
			cl.(mlpred.FeatureClassifier).PredictFeatures(bundleOf(p[0]), bundleOf(p[1]))
		}
		if got := calibs[name].Snapshot().Count; got != int64(len(pairs)) {
			t.Errorf("%s: %d calls recorded %d scores", name, len(pairs), got)
		}
	}
}

// FuzzSimDecide fuzzes the same contract: any two texts, any threshold.
func FuzzSimDecide(f *testing.F) {
	for i, p := range decidePairs() {
		if i%7 == 0 || len(p[0]) > 100 {
			f.Add(p[0], p[1], 0.5+float64(i%6)/10)
		}
	}
	reg := mlpred.DefaultRegistry()
	f.Fuzz(func(t *testing.T, a, b string, th float64) {
		if len(a) > 1024 || len(b) > 1024 {
			t.Skip("the quadratic kernels on long texts starve the fuzzer")
		}
		checkDeciders(t, reg, a, b, th)
	})
}
