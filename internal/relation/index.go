package relation

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Index is an inverted index over one attribute of one relation: it maps
// each value to the tuples carrying that value. The chase engine builds
// one Index per attribute participating in an equality predicate
// (Section V-A, data structure (1)).
//
// Postings are keyed by the packed storage word (interned Sym for
// strings, PackNum bits for numerics), so the hot path — LookupWord fed
// straight from a bound tuple's Word — is one integer-keyed probe with no
// Value boxing. Within one index every stored word comes from a single
// typed column, so words cannot collide across kinds; boxed-Value probes
// go through the symbol table (Lookup) and miss cleanly on strings the
// dataset never interned. The posting lists are views into one shared
// arena built in two passes, so an index allocates O(distinct values)
// table slots instead of O(tuples) slice growth steps.
//
// The word → postings step is a postMap — an open-addressed table with a
// multiplicative hash — rather than a Go map: enumeration fires millions
// of probes per chase, and the runtime map's hashing and bucket protocol
// was the single largest line item in the Deduce profile.
type Index struct {
	Rel  int // relation position within the dataset
	Attr int // attribute position within the schema

	typ  Type
	syms *SymTab
	pm   postMap
}

// postMap is a linear-probed open-addressed hash table from packed words
// to posting lists. Capacity is a power of two; the probe sequence starts
// at a Fibonacci multiplicative hash of the word (one multiply and shift
// — words are already high-entropy Sym or PackNum bits, they only need
// spreading). An occupied slot always holds a non-empty posting list, so
// vals[i] == nil marks an empty slot; the key-0 collision with that
// sentinel is benign because a present key is always found along the
// probe chain before any empty slot.
type postMap struct {
	keys  []uint64
	vals  [][]*Tuple
	mask  uint64
	shift uint
	n     int
}

// fibMul spreads a word over the table's power-of-two capacity
// (Fibonacci hashing: 2^64 / φ).
const fibMul = 0x9E3779B97F4A7C15

func newPostMap(capacity int) postMap {
	if capacity < 8 {
		capacity = 8
	}
	b := bits.Len(uint(capacity - 1))
	size := 1 << b
	return postMap{
		keys:  make([]uint64, size),
		vals:  make([][]*Tuple, size),
		mask:  uint64(size - 1),
		shift: uint(64 - b),
	}
}

// get returns the posting list for w, or nil.
func (pm *postMap) get(w uint64) []*Tuple {
	i := (w * fibMul) >> pm.shift
	for {
		if pm.keys[i] == w {
			return pm.vals[i] // nil when the slot is empty and w == 0
		}
		if pm.vals[i] == nil {
			return nil
		}
		i = (i + 1) & pm.mask
	}
}

// put inserts or replaces the posting list for w. lst must be non-empty
// (empty slots are recognized by a nil list).
func (pm *postMap) put(w uint64, lst []*Tuple) {
	if pm.n+1 > len(pm.keys)-len(pm.keys)>>2 {
		pm.grow()
	}
	i := (w * fibMul) >> pm.shift
	for {
		if pm.vals[i] == nil {
			pm.keys[i] = w
			pm.vals[i] = lst
			pm.n++
			return
		}
		if pm.keys[i] == w {
			pm.vals[i] = lst
			return
		}
		i = (i + 1) & pm.mask
	}
}

// grow doubles the table and reinserts every occupied slot.
func (pm *postMap) grow() {
	old := *pm
	next := newPostMap(len(old.keys) * 2)
	for i, lst := range old.vals {
		if lst != nil {
			next.put(old.keys[i], lst)
		}
	}
	*pm = next
}

// BuildIndex scans rel and indexes attribute attr.
func BuildIndex(relIdx int, rel *Relation, attr int) *Index {
	ix := &Index{
		Rel:  relIdx,
		Attr: attr,
		typ:  rel.Schema.Attrs[attr].Type,
		syms: rel.syms,
	}
	n := len(rel.Tuples)
	// Count into a transient key table sized at 2n so it never grows
	// (distinct ≤ n keeps its load factor under one half and slot indexes
	// stable across the passes). Only keys and counts live here — the
	// resident table is sized by the distinct count afterwards, so an
	// index over a low-cardinality column costs O(distinct) slots, like
	// the runtime map it replaced, not O(tuples).
	tmpCap := 2 * n
	if tmpCap < 8 {
		tmpCap = 8
	}
	tb := bits.Len(uint(tmpCap - 1))
	tmpMask := uint64(1<<tb - 1)
	tmpShift := uint(64 - tb)
	keys := make([]uint64, 1<<tb)
	counts := make([]int32, len(keys))
	distinct := 0
	slotOf := func(w uint64) uint64 {
		i := (w * fibMul) >> tmpShift
		for {
			if counts[i] == 0 {
				keys[i] = w // claim
				return i
			}
			if keys[i] == w {
				return i
			}
			i = (i + 1) & tmpMask
		}
	}
	for _, t := range rel.Tuples {
		s := slotOf(t.Word(attr))
		if counts[s] == 0 {
			distinct++
		}
		counts[s]++
	}
	// Lay every posting list out in one arena: ends[s] walks from the
	// list's start to one past its end while filling, so afterwards the
	// view for slot s is arena[ends[s]-counts[s] : ends[s]]. The views are
	// capacity-clipped so an incremental Add reallocates instead of
	// clobbering its neighbor.
	arena := make([]*Tuple, n)
	ends := make([]int32, len(keys))
	off := int32(0)
	for s, c := range counts {
		if c > 0 {
			ends[s] = off
			off += c
		}
	}
	for _, t := range rel.Tuples {
		s := slotOf(t.Word(attr))
		o := ends[s]
		arena[o] = t
		ends[s] = o + 1
	}
	// Sized at twice the distinct count the resident table never grows
	// during these inserts (load factor one half).
	pm := newPostMap(2 * distinct)
	for s, c := range counts {
		if c > 0 {
			end := ends[s]
			pm.put(keys[s], arena[end-c:end:end])
		}
	}
	ix.pm = pm
	return ix
}

// LookupWord returns all tuples whose indexed attribute packs to w. This
// is the enumeration hot path: w comes from a bound tuple's Word (same
// type by rule well-formedness), so no boxing or symbol probe happens.
func (ix *Index) LookupWord(w uint64) []*Tuple { return ix.pm.get(w) }

// LookupTuple probes the index with the packed word of t's attribute
// attr — the enumeration fast path for t.A = s.B predicates, no boxing.
// If the probing attribute's type differs from the indexed column's, the
// probe misses, mirroring Value.Equal cross-kind semantics.
func (ix *Index) LookupTuple(t *Tuple, attr int) []*Tuple {
	if t.rel.Schema.Attrs[attr].Type != ix.typ {
		return nil
	}
	return ix.pm.get(t.Word(attr))
}

// Lookup returns all tuples whose indexed attribute equals v. Boxed
// compatibility probe: kind mismatches, never-interned strings, and NaN
// all miss, matching Value.Equal semantics.
func (ix *Index) Lookup(v Value) []*Tuple {
	w, ok := ix.WordFor(v)
	if !ok {
		return nil
	}
	return ix.pm.get(w)
}

// WordFor packs a probe value for this index: ok=false means v cannot
// match any stored tuple (wrong kind, unknown string, or NaN).
func (ix *Index) WordFor(v Value) (uint64, bool) {
	if v.Kind != ix.typ {
		return 0, false
	}
	if ix.typ == TypeString {
		s, ok := ix.syms.Find(v.Str)
		return uint64(s), ok
	}
	if v.Num != v.Num {
		return 0, false
	}
	return PackNum(v.Num), true
}

// Add registers a newly appended tuple (incremental ΔD maintenance).
func (ix *Index) Add(t *Tuple) {
	w := t.Word(ix.Attr)
	ix.pm.put(w, append(ix.pm.get(w), t))
}

// Distinct returns the number of distinct values in the index.
func (ix *Index) Distinct() int { return ix.pm.n }

// Each calls fn once per distinct value of the indexed attribute, with its
// packed word and posting list, in table order.
func (ix *Index) Each(fn func(w uint64, post []*Tuple)) {
	for i, post := range ix.pm.vals {
		if post != nil {
			fn(ix.pm.keys[i], post)
		}
	}
}

// MaxBucket returns the size of the largest posting list (a skew measure).
func (ix *Index) MaxBucket() int {
	max := 0
	for _, ts := range ix.pm.vals {
		if len(ts) > max {
			max = len(ts)
		}
	}
	return max
}

// MemBytes estimates the index's footprint: the posting arena plus table
// overhead per slot (key word + posting-list header).
func (ix *Index) MemBytes() int64 {
	var posted int64
	for _, ts := range ix.pm.vals {
		if ts != nil {
			posted += int64(cap(ts))
		}
	}
	return posted*8 + int64(len(ix.pm.keys))*32
}

// IndexSet caches the indexes of a dataset, built lazily per
// (relation, attribute). For is safe for concurrent use (enumerations
// build a similarity join's index on its first probe); Add and MemBytes
// need them quiesced. The parallel engine gives each worker its own
// IndexSet over its fragment. Built alone is safe to read at any time (it
// backs the engine's mid-run stats snapshots): the count is an atomic.
type IndexSet struct {
	d       *Dataset
	mu      sync.Mutex // guards indexes in For
	indexes map[[2]int]*Index
	built   atomic.Int64
}

// NewIndexSet creates an empty index cache over d.
func NewIndexSet(d *Dataset) *IndexSet {
	return &IndexSet{d: d, indexes: make(map[[2]int]*Index)}
}

// For returns the index for (relation, attribute), building it on first use.
func (s *IndexSet) For(rel, attr int) *Index {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := [2]int{rel, attr}
	if ix, ok := s.indexes[key]; ok {
		return ix
	}
	ix := BuildIndex(rel, s.d.Relations[rel], attr)
	s.indexes[key] = ix
	s.built.Add(1)
	return ix
}

// Built returns how many indexes have been materialized. Safe to call
// while another goroutine is lazily building (it reads only the atomic
// count, never the cache map).
func (s *IndexSet) Built() int { return int(s.built.Load()) }

// MemBytes estimates the combined footprint of the materialized indexes.
// Like For, it is only safe against concurrent mutation from the owning
// goroutine.
func (s *IndexSet) MemBytes() int64 {
	var n int64
	for _, ix := range s.indexes {
		n += ix.MemBytes()
	}
	return n
}

// Add registers a newly appended tuple in every materialized index of its
// relation (incremental ΔD maintenance). The tuple must already be part
// of the underlying dataset.
func (s *IndexSet) Add(t *Tuple) {
	for key, ix := range s.indexes {
		if key[0] == t.Rel {
			ix.Add(t)
		}
	}
}
