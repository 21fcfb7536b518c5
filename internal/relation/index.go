package relation

import (
	"errors"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// Index is an inverted index over one attribute of one relation: it maps
// each value to the GIDs of the tuples carrying that value. The chase
// engine builds one Index per attribute participating in an equality
// predicate (Section V-A, data structure (1)).
//
// Postings are keyed by the packed storage word (interned Sym for
// strings, PackNum bits for numerics), so the hot path — LookupWord fed
// straight from a bound tuple's word — is one integer-keyed probe with no
// Value boxing. Within one index every stored word comes from a single
// typed column, so words cannot collide across kinds; boxed-Value probes
// go through the symbol table (Lookup) and miss cleanly on strings the
// dataset never interned. The posting lists are GID-ascending runs of one
// TID arena, which holds no pointers, so the collector never scans it.
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
	rel  *Relation // the indexed relation, whose words AddBatch reads
	pm   postMap
}

// postSlot is one slot of a postMap: a key and where its posting list
// lies in the arena. n == 0 marks an empty slot.
type postSlot struct {
	key uint64
	off int32
	n   int32
}

// postMap is a linear-probed open-addressed hash table from packed words
// to posting lists in one arena, so a probe touches one 16-byte slot and
// then the list. Capacity is a power of two; the probe sequence starts at
// a Fibonacci multiplicative hash of the word (one multiply and shift —
// words are already high-entropy Sym or PackNum bits, they only need
// spreading). An occupied slot always holds a non-empty list, so an empty
// slot is recognized by its length whatever its key.
//
// BuildIndex lays the lists out back to back, each exactly full. The
// first append (IndexSet.AddBatch) gives every slot a capacity in caps;
// a list that is full moves to the arena's end with twice its room, so
// appends cost amortized O(1) and the moved-from runs are left as slack.
type postMap struct {
	slots []postSlot
	arena []TID
	caps  []int32 // per slot, the room of its list; nil while every list is full
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
		slots: make([]postSlot, size),
		mask:  uint64(size - 1),
		shift: uint(64 - b),
	}
}

// get returns the posting list for w, or nil.
func (pm *postMap) get(w uint64) []TID {
	i := (w * fibMul) >> pm.shift
	for {
		s := &pm.slots[i]
		if s.n == 0 {
			return nil
		}
		if s.key == w {
			return pm.arena[s.off : s.off+s.n : s.off+s.n]
		}
		i = (i + 1) & pm.mask
	}
}

// slot returns the slot of w, claiming an empty one for it (growing the
// table first when full). The caller must then give a claimed slot a
// non-empty list: empty slots are recognized by their length.
func (pm *postMap) slot(w uint64) uint64 {
	if pm.n+1 > len(pm.slots)-len(pm.slots)>>2 {
		pm.grow()
	}
	i := (w * fibMul) >> pm.shift
	for pm.slots[i].n != 0 {
		if pm.slots[i].key == w {
			return i
		}
		i = (i + 1) & pm.mask
	}
	pm.slots[i].key = w
	pm.n++
	return i
}

// appendTo appends t to the posting list of w: one probe per posting.
func (pm *postMap) appendTo(w uint64, t TID) {
	if pm.caps == nil {
		pm.caps = make([]int32, len(pm.slots))
		for i := range pm.slots {
			pm.caps[i] = pm.slots[i].n
		}
	}
	i := pm.slot(w)
	s := &pm.slots[i]
	if s.n == pm.caps[i] {
		room := max(2*s.n, 1)
		if end := int(s.off + s.n); s.n == 0 || end != len(pm.arena) {
			off := int32(len(pm.arena))
			pm.arena = append(pm.arena, pm.arena[s.off:end]...)
			s.off = off
		}
		pm.arena = slices.Grow(pm.arena, int(room-s.n))[:int(s.off+room)]
		pm.caps[i] = room
	}
	pm.arena[s.off+s.n] = t
	s.n++
}

// grow doubles the table and reinserts every occupied slot, with its room.
func (pm *postMap) grow() {
	old := *pm
	next := newPostMap(len(old.slots) * 2)
	if old.caps != nil {
		next.caps = make([]int32, len(next.slots))
	}
	for i, s := range old.slots {
		if s.n == 0 {
			continue
		}
		j := (s.key * fibMul) >> next.shift
		for next.slots[j].n != 0 {
			j = (j + 1) & next.mask
		}
		next.slots[j] = s
		if old.caps != nil {
			next.caps[j] = old.caps[i]
		}
	}
	next.arena, next.n = old.arena, old.n
	*pm = next
}

// BuildIndex scans rel and indexes attribute attr.
func BuildIndex(relIdx int, rel *Relation, attr int) *Index {
	ix := &Index{
		Rel:  relIdx,
		Attr: attr,
		typ:  rel.Schema.Attrs[attr].Type,
		syms: rel.syms,
		rel:  rel,
	}
	tids, col, rows := rel.tids, rel.cols[attr], rel.loc.row
	n := len(tids)
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
	for _, id := range tids {
		s := slotOf(col[rows[id]])
		if counts[s] == 0 {
			distinct++
		}
		counts[s]++
	}
	// Lay every posting list out in one arena: ends[s] walks from the
	// list's start to one past its end while filling, so afterwards the
	// list of slot s is arena[ends[s]-counts[s] : ends[s]].
	arena := make([]TID, n)
	ends := make([]int32, len(keys))
	off := int32(0)
	for s, c := range counts {
		if c > 0 {
			ends[s] = off
			off += c
		}
	}
	for _, id := range tids {
		s := slotOf(col[rows[id]])
		o := ends[s]
		arena[o] = id
		ends[s] = o + 1
	}
	// Sized at twice the distinct count the resident table never grows
	// during these inserts (load factor one half).
	pm := newPostMap(2 * distinct)
	pm.arena = arena
	for s, c := range counts {
		if c > 0 {
			i := pm.slot(keys[s])
			pm.slots[i].off, pm.slots[i].n = ends[s]-c, c
		}
	}
	ix.pm = pm
	return ix
}

// LookupWord returns the GIDs of all tuples whose indexed attribute packs
// to w, ascending. This is the enumeration hot path: w comes from a bound
// tuple's word (same type by rule well-formedness), so no boxing or
// symbol probe happens. The list is a view into the index: read only.
func (ix *Index) LookupWord(w uint64) []TID { return ix.pm.get(w) }

// Lookup returns the GIDs of all tuples whose indexed attribute equals v.
// Boxed compatibility probe: kind mismatches, never-interned strings, and
// NaN all miss, matching Value.Equal semantics.
func (ix *Index) Lookup(v Value) []TID {
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

// Distinct returns the number of distinct values in the index.
func (ix *Index) Distinct() int { return ix.pm.n }

// Each calls fn once per distinct value of the indexed attribute, with its
// packed word and posting list, in table order.
func (ix *Index) Each(fn func(w uint64, post []TID)) {
	for _, s := range ix.pm.slots {
		if s.n != 0 {
			fn(s.key, ix.pm.arena[s.off:s.off+s.n:s.off+s.n])
		}
	}
}

// IndexSet caches the indexes of a dataset, built lazily per
// (relation, attribute). For is safe for concurrent use: it builds each
// index once, outside the set-wide lock, so callers asking for different
// indexes build in parallel and a caller asking for one in the making
// waits for it. AddBatch needs them quiesced.
//
// An IndexSet value is a handle on the cache; Share hands out more. The
// DMatch workers of one process bind their engines against handles of one
// set over the dataset, and each cuts the candidates it draws from the
// postings to the hypercube cells it owns. A shared set is
// read-only: AddBatch refuses. Built is safe to read at any time (it backs
// the engine's mid-run stats snapshots): the count is an atomic.
type IndexSet struct {
	c     *indexCache
	built atomic.Int64 // indexes this handle built
}

// indexCache is what the handles of one IndexSet share.
type indexCache struct {
	d       *Dataset
	mu      sync.Mutex // guards the map, not the builds
	indexes map[[2]int]*indexEntry
	shared  atomic.Bool // Share was called: AddBatch refuses
}

// indexEntry holds one index of the cache, built once by the first
// caller to ask for it.
type indexEntry struct {
	once sync.Once
	ix   *Index
}

// NewIndexSet creates an empty index cache over d.
func NewIndexSet(d *Dataset) *IndexSet {
	return &IndexSet{c: &indexCache{d: d, indexes: make(map[[2]int]*indexEntry)}}
}

// Share returns a new handle on s's indexes, for another engine to bind
// against; its Built counts the builds made through it. It makes the set
// read-only for every handle: AddBatch refuses from then on.
func (s *IndexSet) Share() *IndexSet {
	s.c.shared.Store(true)
	return &IndexSet{c: s.c}
}

// For returns the index for (relation, attribute), building it on first
// use. Only finding or adding its entry happens under the set-wide lock.
func (s *IndexSet) For(rel, attr int) *Index {
	c := s.c
	key := [2]int{rel, attr}
	c.mu.Lock()
	en := c.indexes[key]
	if en == nil {
		en = new(indexEntry)
		c.indexes[key] = en
	}
	c.mu.Unlock()
	en.once.Do(func() {
		en.ix = BuildIndex(rel, c.d.Relations[rel], attr)
		s.built.Add(1)
	})
	return en.ix
}

// Built returns how many indexes were materialized through this handle:
// every one of an unshared set's. Safe to call while another goroutine is
// building (it reads only the atomic count).
func (s *IndexSet) Built() int { return int(s.built.Load()) }

// errSharedAddBatch refuses appends to a shared set: its handles' engines
// read the postings while others run.
var errSharedAddBatch = errors.New("relation: AddBatch on a shared IndexSet: a shared set is read-only")

// AddBatch registers newly appended tuples, by GID, GIDs above every
// tuple the set has seen, in every materialized index of their relations
// (incremental ΔD maintenance). Each relation's share is appended to its
// indexes in GID order, so postings stay GID-ascending and list what
// BuildIndex's over the grown dataset list. A shared set (Share) refuses,
// touching nothing.
func (s *IndexSet) AddBatch(ids []TID) error {
	c := s.c
	if c.shared.Load() {
		return errSharedAddBatch
	}
	byRel := make([][]TID, len(c.d.Relations))
	for _, id := range ids {
		r := c.d.RelOf(id)
		byRel[r] = append(byRel[r], id)
	}
	for _, rids := range byRel {
		slices.Sort(rids)
	}
	for key, en := range c.indexes {
		ix := en.ix
		for _, id := range byRel[key[0]] {
			ix.pm.appendTo(ix.rel.Word(id, ix.Attr), id)
		}
	}
	return nil
}
