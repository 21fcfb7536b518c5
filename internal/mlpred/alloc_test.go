package mlpred_test

import (
	"testing"
	"testing/quick"

	"dcer/internal/mlpred"
	"dcer/internal/relation"
)

// refJaro is the straightforward rune-slice Jaro implementation, kept
// here as the oracle for the allocation-free ASCII fast path.
func refJaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, la)
	matchB := make([]bool, lb)
	matches := 0
	for i, ca := range ra {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if matchB[j] || rb[j] != ca {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := range ra {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// TestJaroASCIIFastPathEquivalence checks the byte-wise fast path against
// the rune-slice oracle on arbitrary ASCII inputs (quick.Check values are
// masked down to ASCII so the fast path is the one exercised).
func TestJaroASCIIFastPathEquivalence(t *testing.T) {
	toASCII := func(s string) string {
		b := []byte(s)
		for i := range b {
			b[i] = b[i] & 0x7F
			if b[i] == 0 {
				b[i] = 'a'
			}
		}
		if len(b) > 64 {
			b = b[:64]
		}
		return string(b)
	}
	f := func(x, y string) bool {
		a, b := toASCII(x), toASCII(y)
		return mlpred.Jaro(a, b) == refJaro(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Non-ASCII and oversized inputs fall back to the rune path and must
	// agree with the oracle too.
	for _, pair := range [][2]string{
		{"møller", "moller"},
		{"日本語テキスト", "日本語テキスト"},
		{string(make([]byte, 100)), "aaa"},
	} {
		if got, want := mlpred.Jaro(pair[0], pair[1]), refJaro(pair[0], pair[1]); got != want {
			t.Errorf("Jaro(%q, %q) = %v, want %v", pair[0], pair[1], got, want)
		}
	}
}

// TestMetricAllocs guards the string-metric hot paths: ASCII inputs
// within the stack-scratch bounds must not allocate.
func TestMetricAllocs(t *testing.T) {
	a, b := "Customer maroon steel 1234", "Custmoer maroon steel 1234"
	var sink float64
	if avg := testing.AllocsPerRun(200, func() { sink = mlpred.Jaro(a, b) }); avg != 0 {
		t.Errorf("Jaro allocates %.1f per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { sink = mlpred.JaroWinkler(a, b) }); avg != 0 {
		t.Errorf("JaroWinkler allocates %.1f per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { sink = mlpred.LevenshteinSim(a, b) }); avg != 0 {
		t.Errorf("LevenshteinSim allocates %.1f per call, want 0", avg)
	}
	_ = sink
}

// TestCacheProbeAllocs guards the warm probe paths the enumeration inner
// loop leans on: pair-cache lookups and feature-store hits must be
// allocation-free.
func TestCacheProbeAllocs(t *testing.T) {
	pc := mlpred.NewPairCache()
	cl := pc.ClassifierID("jaro085|1~1")
	pc.Store(cl, 3, 9, true)
	var ok bool
	if avg := testing.AllocsPerRun(200, func() { _, ok = pc.Lookup(cl, 3, 9) }); avg != 0 {
		t.Errorf("PairCache.Lookup allocates %.1f per probe, want 0", avg)
	}
	if !ok {
		t.Fatal("stored answer not found")
	}

	fs := mlpred.NewFeatureStore(0)
	aid := fs.AttrsID([]int{1, 2})
	vals := []relation.Value{relation.S("alpha beta"), relation.S("gamma")}
	fs.Get(7, aid, vals) // populate
	var feat *mlpred.Features
	if avg := testing.AllocsPerRun(200, func() { feat = fs.Get(7, aid, vals) }); avg != 0 {
		t.Errorf("FeatureStore.Get hit allocates %.1f per probe, want 0", avg)
	}
	if feat == nil {
		t.Fatal("feature bundle missing on hit")
	}
	if avg := testing.AllocsPerRun(200, func() { feat, ok = fs.Cached(7, aid) }); avg != 0 {
		t.Errorf("FeatureStore.Cached allocates %.1f per warm probe, want 0", avg)
	}
	if !ok || feat == nil {
		t.Fatal("feature bundle missing on warm probe")
	}
	// A cold probe must not build the directory path it fails to find.
	if avg := testing.AllocsPerRun(200, func() { _, ok = fs.Cached(1<<24, aid) }); avg != 0 || ok {
		t.Errorf("FeatureStore.Cached on an untouched page: %.1f allocs, found %v; want 0, false", avg, ok)
	}
}
