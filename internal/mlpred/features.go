package mlpred

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"dcer/internal/relation"
)

// TokenCount is one distinct lowercase token of a text with its
// multiplicity, kept sorted by token inside Features so set and vector
// operations run as linear merges instead of map probes.
type TokenCount struct {
	Tok string
	N   float64
}

// Features is the precomputed feature bundle of one attribute-value vector
// (one tuple projected on one ML predicate's attribute list). Classifiers
// that implement FeatureClassifier score pairs of these by merges and dot
// products instead of re-tokenizing, re-embedding, and re-joining strings
// on every Predict call.
//
// Only the flattened text is materialized up front; the token multiset and
// the trigram embedding are each derived on first use and memoized, so a
// bundle scored only by an edit-distance classifier never tokenizes, and
// one scored only by token metrics never embeds.
type Features struct {
	// Text is the flattened attribute text (FlattenValues of the vector).
	Text string

	dim int

	tokOnce   sync.Once
	tokens    []TokenCount
	tokenNorm float64

	embOnce sync.Once
	embed   []float64
}

// ComputeFeatures builds the feature bundle of one attribute-value vector.
func ComputeFeatures(vals []relation.Value, dim int) *Features {
	return computeFeaturesText(FlattenValues(vals), dim)
}

func computeFeaturesText(text string, dim int) *Features {
	if dim <= 0 {
		dim = EmbeddingDim
	}
	return &Features{Text: text, dim: dim}
}

// Tokens returns the distinct lowercase tokens of the text with counts,
// sorted by token; computed on first call. Safe for concurrent use.
func (f *Features) Tokens() []TokenCount {
	f.tokOnce.Do(f.computeTokens)
	return f.tokens
}

// TokenNorm returns the L2 norm of the token-count vector.
func (f *Features) TokenNorm() float64 {
	f.tokOnce.Do(f.computeTokens)
	return f.tokenNorm
}

// Embedding returns the hashed character-trigram embedding, L2-normalized
// so the cosine of two bundles is a plain dot product; computed on first
// call. Safe for concurrent use.
func (f *Features) Embedding() []float64 {
	f.embOnce.Do(func() { f.embed = Embed(f.Text, f.dim) })
	return f.embed
}

func (f *Features) computeTokens() {
	toks := Tokenize(f.Text)
	if len(toks) == 0 {
		return
	}
	sort.Strings(toks)
	f.tokens = make([]TokenCount, 0, len(toks))
	for _, t := range toks {
		if n := len(f.tokens); n > 0 && f.tokens[n-1].Tok == t {
			f.tokens[n-1].N++
		} else {
			f.tokens = append(f.tokens, TokenCount{Tok: t, N: 1})
		}
	}
	var norm float64
	for _, tc := range f.tokens {
		norm += tc.N * tc.N
	}
	f.tokenNorm = math.Sqrt(norm)
}

// JaccardFeatures is token-set Jaccard over precomputed sorted token lists
// (a linear merge; no maps, no re-tokenization).
func JaccardFeatures(a, b *Features) float64 {
	ta, tb := a.Tokens(), b.Tokens()
	la, lb := len(ta), len(tb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	inter := 0
	for i, j := 0, 0; i < la && j < lb; {
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
	return float64(inter) / float64(la+lb-inter)
}

// CosineTokensFeatures is token-frequency cosine over precomputed sorted
// token lists.
func CosineTokensFeatures(a, b *Features) float64 {
	ta, tb := a.Tokens(), b.Tokens()
	if len(ta) == 0 || len(tb) == 0 {
		if len(ta) == 0 && len(tb) == 0 {
			return 1
		}
		return 0
	}
	var dot float64
	for i, j := 0, 0; i < len(ta) && j < len(tb); {
		switch {
		case ta[i].Tok == tb[j].Tok:
			dot += ta[i].N * tb[j].N
			i++
			j++
		case ta[i].Tok < tb[j].Tok:
			i++
		default:
			j++
		}
	}
	if a.TokenNorm() == 0 || b.TokenNorm() == 0 {
		return 0
	}
	return dot / (a.TokenNorm() * b.TokenNorm())
}

// EmbeddingSimFeatures is embedding cosine over the precomputed vectors —
// the expensive Embed pass runs once per bundle, only the dot product
// remains per pair.
func EmbeddingSimFeatures(a, b *Features) float64 {
	return CosineVec(a.Embedding(), b.Embedding())
}

// featPageBits sizes a FeatureStore page: 256 bundle slots (2 KiB of
// pointers). A predicate's tuples occupy the contiguous GID range of its
// relation, so paging keeps a table from paying for the other relations.
const featPageBits = 8

type featPage [1 << featPageBits]atomic.Pointer[Features]

// featTable holds one attribute list's bundles indexed by GID. Pages hang
// off directory segments of doubling size — segment 0 covers page 0,
// segment k > 0 pages [2^(k-1), 2^k) — so the directory grows with the id
// space (InsertTuples, remote ids of a larger parent dataset) by adding
// segments, never by moving one: segments and pages are installed by
// compare-and-swap on first touch and an installed slot is never replaced.
type featTable struct {
	segs [32 - featPageBits + 1]atomic.Pointer[[]atomic.Pointer[featPage]]
}

// slot returns the bundle slot of gid. With alloc false it returns nil
// instead of installing a missing segment or page.
func (t *featTable) slot(gid relation.TID, alloc bool) *atomic.Pointer[Features] {
	pn := uint32(gid) >> featPageBits
	k := bits.Len32(pn)
	base := uint32(1) << k >> 1 // first page of segment k
	seg := t.segs[k].Load()
	if seg == nil {
		if !alloc {
			return nil
		}
		s := make([]atomic.Pointer[featPage], max(base, 1))
		t.segs[k].CompareAndSwap(nil, &s)
		seg = t.segs[k].Load()
	}
	dir := &(*seg)[pn-base]
	page := dir.Load()
	if page == nil {
		if !alloc {
			return nil
		}
		dir.CompareAndSwap(nil, new(featPage))
		page = dir.Load()
	}
	return &page[gid&(1<<featPageBits-1)]
}

// FeatureStore computes and retains the Features of each (tuple,
// attribute-list) pair exactly once. Tuple ids are dense, so the store is
// an array, not a map: per interned attribute list (AttrsID, at rule-bind
// time) a paged table indexed by the tuple's global id, whose slots are
// published by compare-and-swap. A lookup is a few dependent loads — no
// hashing, no locks — and of several goroutines computing the same bundle
// at once exactly one publishes it and counts the miss, so Misses always
// equals Entries.
type FeatureStore struct {
	dim int

	// tables is indexed by attribute-list id; the slice only grows, at bind
	// time, and is republished copy-on-write so lookups read it with one
	// atomic load.
	tables atomic.Pointer[[]*featTable]

	hits   atomic.Int64
	misses atomic.Int64 // bundles published; also the retained count

	mu    sync.Mutex // guards attribute-list interning (bind time only)
	attrs [][]int
}

// NewFeatureStore creates an empty store producing embeddings of the given
// dimensionality (0 means EmbeddingDim).
func NewFeatureStore(dim int) *FeatureStore {
	if dim <= 0 {
		dim = EmbeddingDim
	}
	s := &FeatureStore{dim: dim}
	s.tables.Store(new([]*featTable))
	return s
}

// AttrsID interns an attribute-index list to a small id. Call once per
// bound predicate at setup, not on the scoring path.
func (s *FeatureStore) AttrsID(attrs []int) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, a := range s.attrs {
		if slices.Equal(a, attrs) {
			return uint32(id)
		}
	}
	s.attrs = append(s.attrs, slices.Clone(attrs))
	next := append(slices.Clone(*s.tables.Load()), new(featTable))
	s.tables.Store(&next)
	return uint32(len(next) - 1)
}

// Get returns the feature bundle of tuple gid projected on the interned
// attribute list, computing and caching it on first use. vals is the
// tuple's attribute-value vector for that list; it is only read on a miss.
func (s *FeatureStore) Get(gid relation.TID, attrsID uint32, vals []relation.Value) *Features {
	slot := (*s.tables.Load())[attrsID].slot(gid, true)
	if f := slot.Load(); f != nil {
		s.hits.Add(1)
		return f
	}
	return s.publish(slot, ComputeFeatures(vals, s.dim))
}

// GetText is Get for callers that already hold the flattened text (the
// baselines' record view).
func (s *FeatureStore) GetText(gid relation.TID, attrsID uint32, text string) *Features {
	slot := (*s.tables.Load())[attrsID].slot(gid, true)
	if f := slot.Load(); f != nil {
		s.hits.Add(1)
		return f
	}
	return s.publish(slot, computeFeaturesText(text, s.dim))
}

// publish installs a freshly computed bundle. A concurrent duplicate costs
// one redundant computation, never a wrong answer (features are
// deterministic): the loser discards its bundle, returns the winner's and
// counts as the hit it turned out to be.
func (s *FeatureStore) publish(slot *atomic.Pointer[Features], f *Features) *Features {
	if slot.CompareAndSwap(nil, f) {
		s.misses.Add(1)
		return f
	}
	s.hits.Add(1)
	return slot.Load()
}

// Cached returns the feature bundle of (gid, attrsID) only if it is
// already in the store. Callers use it to avoid gathering the boxed
// attribute vector on warm lookups: probe Cached first, and only on a miss
// gather the values and call Get. Cached counts nothing — it is the
// enumeration inner loop's probe, and a shared counter there is a cache
// line every goroutine writes; such callers count their own hits (the
// chase engine folds them into Stats.FeatHits).
func (s *FeatureStore) Cached(gid relation.TID, attrsID uint32) (*Features, bool) {
	slot := (*s.tables.Load())[attrsID].slot(gid, false)
	if slot == nil {
		return nil, false
	}
	f := slot.Load()
	return f, f != nil
}

// Snapshot returns the hits and misses counted by Get and GetText and the
// retained bundle count. Entries is the miss counter itself (one published
// bundle per counted miss), so Misses == Entries in every snapshot, taken
// mid-run or not.
func (s *FeatureStore) Snapshot() CacheSnapshot {
	misses := s.misses.Load()
	return CacheSnapshot{Hits: s.hits.Load(), Misses: misses, Entries: int(misses)}
}

// Len returns the number of retained feature bundles.
func (s *FeatureStore) Len() int {
	return s.Snapshot().Entries
}

// Stats returns (hits, misses); a miss creates and retains one bundle
// (whose token and embedding parts are then derived lazily on first use).
func (s *FeatureStore) Stats() (hits, misses int64) {
	snap := s.Snapshot()
	return snap.Hits, snap.Misses
}
