// Package mlpred is the ML-predicate substrate of the reproduction.
//
// The paper embeds pretrained ML classifiers (DeepER, fasttext, ditto, ...)
// as predicates M(t[Ā], s[B̄]) inside MRLs. This environment has no ML
// libraries, so — per the reproduction's substitution rule — the package
// provides deterministic, pure-Go binary classifiers over attribute-value
// vectors that exercise exactly the same code path: the chase engine treats
// each one as an opaque boolean oracle and memoizes its answers.
//
// Provided classifier families:
//
//   - threshold classifiers over classical string metrics (Levenshtein,
//     Jaro-Winkler, Jaccard, TF-IDF cosine) — stand-ins for fasttext-style
//     semantic similarity checks;
//   - an embedding classifier using hashed character-n-gram vectors and
//     cosine similarity — a stand-in for DeepER's distributed tuple
//     representations;
//   - a trainable logistic-regression classifier over pair features, with
//     an SGD trainer — a stand-in for supervised ER models.
package mlpred

import (
	"math"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Stack-scratch bounds of the ASCII fast paths below: strings at most
// this long are scored without any heap allocation. Longer or non-ASCII
// inputs take the general rune paths, which produce identical results
// (for ASCII text, byte indexing and rune indexing coincide).
const (
	jaroStack = 64
	levStack  = 128
)

// isASCII reports whether s contains only single-byte runes.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// Tokenize splits s into lowercase word tokens on any non-alphanumeric rune.
func Tokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// NGrams returns the character n-grams of s (lowercased, padded with '#').
func NGrams(s string, n int) []string {
	if n <= 0 {
		return nil
	}
	s = strings.ToLower(s)
	pad := strings.Repeat("#", n-1)
	s = pad + s + pad
	r := []rune(s)
	if len(r) < n {
		return []string{string(r)}
	}
	out := make([]string, 0, len(r)-n+1)
	for i := 0; i+n <= len(r); i++ {
		out = append(out, string(r[i:i+n]))
	}
	return out
}

// Levenshtein computes the edit distance between a and b.
func Levenshtein(a, b string) int {
	if len(b) < levStack && isASCII(a) && isASCII(b) {
		return levASCII(a, b)
	}
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// levASCII is the allocation-free byte-wise edit distance for ASCII
// inputs with len(b) < levStack; same recurrence as the rune path.
func levASCII(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	var prevBuf, curBuf [levStack]int
	prev, cur := prevBuf[:len(b)+1], curBuf[:len(b)+1]
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// LevenshteinSim normalizes edit distance into a [0,1] similarity.
func LevenshteinSim(a, b string) float64 {
	if a == "" && b == "" {
		return 1
	}
	la, lb := utf8.RuneCountInString(a), utf8.RuneCountInString(b)
	max := la
	if lb > max {
		max = lb
	}
	if max == 0 {
		return 1
	}
	return 1 - float64(Levenshtein(a, b))/float64(max)
}

// Jaro computes the Jaro similarity of a and b.
func Jaro(a, b string) float64 {
	if len(a) <= jaroStack && len(b) <= jaroStack && isASCII(a) && isASCII(b) {
		return jaroASCII(a, b)
	}
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

// jaroASCII is the allocation-free byte-wise Jaro similarity for ASCII
// inputs up to jaroStack bytes; same algorithm as the rune path.
func jaroASCII(a, b string) float64 {
	la, lb := len(a), len(b)
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
	var matchA, matchB [jaroStack]bool
	matches := 0
	for i := 0; i < la; i++ {
		ca := a[i]
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if matchB[j] || b[j] != ca {
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
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if a[i] != b[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// JaroWinkler boosts Jaro similarity for shared prefixes (standard p=0.1,
// prefix capped at 4).
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	prefix := 0
	for prefix < 4 && len(a) > 0 && len(b) > 0 {
		ca, na := utf8.DecodeRuneInString(a)
		cb, nb := utf8.DecodeRuneInString(b)
		if ca != cb {
			break
		}
		a, b = a[na:], b[nb:]
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// Jaccard computes token-set Jaccard similarity of a and b.
func Jaccard(a, b string) float64 {
	ta, tb := Tokenize(a), Tokenize(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	setA := make(map[string]bool, len(ta))
	for _, t := range ta {
		setA[t] = true
	}
	setB := make(map[string]bool, len(tb))
	for _, t := range tb {
		setB[t] = true
	}
	inter := 0
	for t := range setA {
		if setB[t] {
			inter++
		}
	}
	union := len(setA) + len(setB) - inter
	return float64(inter) / float64(union)
}

// CosineTokens computes the cosine similarity of the token-frequency
// vectors of a and b (a cheap TF cosine).
func CosineTokens(a, b string) float64 {
	fa := termFreq(Tokenize(a))
	fb := termFreq(Tokenize(b))
	return cosineMaps(fa, fb)
}

func termFreq(tokens []string) map[string]float64 {
	m := make(map[string]float64, len(tokens))
	for _, t := range tokens {
		m[t]++
	}
	return m
}

func cosineMaps(a, b map[string]float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		if len(a) == 0 && len(b) == 0 {
			return 1
		}
		return 0
	}
	var dot, na, nb float64
	for t, w := range a {
		na += w * w
		if w2, ok := b[t]; ok {
			dot += w * w2
		}
	}
	for _, w := range b {
		nb += w * w
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// AbbrevNameSim recognizes abbreviated person names ("Ford Smith" vs
// "F. Smith"): it returns 1 when the last tokens agree and every leading
// token of one side is a prefix (e.g. an initial) of the corresponding
// token of the other, and 0 otherwise.
func AbbrevNameSim(a, b string) float64 {
	ta, tb := Tokenize(a), Tokenize(b)
	if len(ta) == 0 || len(tb) == 0 || len(ta) != len(tb) {
		return 0
	}
	if ta[len(ta)-1] != tb[len(tb)-1] {
		return 0
	}
	for i := 0; i < len(ta)-1; i++ {
		x, y := ta[i], tb[i]
		if !strings.HasPrefix(x, y) && !strings.HasPrefix(y, x) {
			return 0
		}
	}
	return 1
}

// SurnameSim compares comma-separated author/person lists by the Jaccard
// similarity of their surname sets (the last token of each name), so
// "J. Smith, A. Kumar" and "John Smith, Anil Kumar" score 1.
func SurnameSim(a, b string) float64 {
	last := func(s string) map[string]bool {
		out := make(map[string]bool)
		for _, name := range strings.Split(s, ",") {
			toks := Tokenize(name)
			if len(toks) > 0 {
				out[toks[len(toks)-1]] = true
			}
		}
		return out
	}
	sa, sb := last(a), last(b)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	inter := 0
	for t := range sa {
		if sb[t] {
			inter++
		}
	}
	return float64(inter) / float64(len(sa)+len(sb)-inter)
}
