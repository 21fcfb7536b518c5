package mlpred

import "math"

// Deciders (SimClassifier.Decide) answer "metric ≥ threshold" from bounds
// where those settle it; only the band in between pays the kernel. Each
// derives its integer budget from the metric's own float expression, so
// the decision is the kernel's bit for bit.

// LevenshteinAtLeast decides LevenshteinSim(a.Text, b.Text) ≥ th: the
// threshold allows at most k edits, a length difference above k rules the
// pair out, and a DP confined to the diagonal band ±k (Ukkonen) stops at
// the first row whose minimum exceeds k. Texts outside the ASCII
// stack-scratch bounds take the kernel.
func LevenshteinAtLeast(a, b *Features, th float64) bool {
	s, t := a.Text, b.Text
	if len(s) < len(t) {
		s, t = t, s
	}
	n, m := len(s), len(t)
	if n >= levStack || !isASCII(s) || !isASCII(t) {
		return LevenshteinSim(s, t) >= th
	}
	if n == 0 {
		return 1 >= th
	}
	// k is the largest distance d with 1 - d/n ≥ th (-1: not even d = 0).
	k := min(max(int((1-th)*float64(n)), 0), n)
	for k >= 0 && !(1-float64(k)/float64(n) >= th) {
		k--
	}
	for k < n && 1-float64(k+1)/float64(n) >= th {
		k++
	}
	if n-m > k {
		return false
	}
	// A shared prefix or suffix costs no edit: only the core between them
	// is aligned (near-duplicates leave a few characters of it).
	for m > 0 && s[0] == t[0] {
		s, t, n, m = s[1:], t[1:], n-1, m-1
	}
	for m > 0 && s[n-1] == t[m-1] {
		n, m = n-1, m-1
	}
	if k >= n {
		return true
	}
	// Cells outside the band only need to read as more than k; row 0's true
	// values do, and each row stamps k+1 on either side of its band. Every
	// cell is at most levStack, so a byte holds it.
	var prevBuf, curBuf [levStack]uint8
	prev, cur := prevBuf[:m+1], curBuf[:m+1]
	for j := range prev {
		prev[j] = uint8(j)
	}
	for i := 1; i <= n; i++ {
		lo, hi := max(1, i-k), min(m, i+k)
		cur[lo-1] = uint8(k + 1)
		if lo == 1 {
			cur[0] = uint8(i)
		}
		rowMin := cur[lo-1]
		for j := lo; j <= hi; j++ {
			d := prev[j-1]
			if s[i-1] != t[j-1] {
				d = min(d, prev[j], cur[j-1]) + 1
			}
			cur[j] = d
			rowMin = min(rowMin, d)
		}
		if int(rowMin) > k {
			return false
		}
		if hi < m {
			cur[hi+1] = uint8(k + 1)
		}
		prev, cur = cur, prev
	}
	return int(prev[m]) <= k
}

// JaccardAtLeast decides JaccardFeatures(a, b) ≥ th: the threshold needs an
// intersection of at least `need` tokens, which the smaller token set must
// be able to supply (the size bound), and the merge stops as soon as the
// intersection reaches it or the tokens left no longer can.
func JaccardAtLeast(a, b *Features, th float64) bool {
	ta, tb := a.Tokens(), b.Tokens()
	la, lb := len(ta), len(tb)
	if la == 0 || lb == 0 {
		return JaccardFeatures(a, b) >= th
	}
	ok := func(inter int) bool { return float64(inter)/float64(la+lb-inter) >= th }
	most := min(la, lb)
	need := min(max(int(math.Ceil(th*float64(la+lb)/(1+th))), 0), most+1)
	for need > 0 && ok(need-1) {
		need--
	}
	for need <= most && !ok(need) {
		need++
	}
	inter := 0
	for i, j := 0, 0; inter < need; {
		if inter+min(la-i, lb-j) < need {
			return false
		}
		switch {
		case ta[i].Tok == tb[j].Tok:
			inter++
			i++
			j++
		case ta[i].Tok < tb[j].Tok:
			i++
		default:
			j++
		}
	}
	return true
}
