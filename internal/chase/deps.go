package chase

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"dcer/internal/provenance"
	"dcer/internal/relation"
)

// Literal is one id or ML literal appearing in a dependency of H. The
// classifier name of an ML literal is held as an index into the
// process-wide model table, packing a literal into 12 bytes (three words
// of a dependency record) and letting Γ's validated set key on it without
// hashing a string.
type Literal struct {
	A, B  relation.TID
	model uint16
	Kind  FactKind
}

// mlLit builds an ML-prediction literal over an interned model name.
func mlLit(model uint16, a, b relation.TID) Literal {
	return Literal{Kind: FactML, A: a, B: b, model: model}
}

// matchLit builds an id-match literal.
func matchLit(a, b relation.TID) Literal {
	return Literal{Kind: FactMatch, A: a, B: b}
}

// ModelName resolves the classifier name of an ML literal ("" for a
// match literal).
func (l Literal) ModelName() string { return modelName(l.model) }

// modelTab interns ML model names process-wide. A ruleset references a
// handful of classifiers, so the table stays tiny and is never pruned.
// Names are interned at the boundaries (rule binding, facts entering Γ);
// resolving one reads an atomically published slice, never the lock.
var modelTab = struct {
	mu    sync.Mutex
	idx   map[string]uint16
	names atomic.Pointer[[]string]
}{idx: map[string]uint16{"": 0}}

func init() {
	names := []string{""}
	modelTab.names.Store(&names)
}

func internModel(s string) uint16 {
	if s == "" {
		return 0
	}
	modelTab.mu.Lock()
	defer modelTab.mu.Unlock()
	if i, ok := modelTab.idx[s]; ok {
		return i
	}
	old := *modelTab.names.Load()
	i := uint16(len(old))
	modelTab.idx[s] = i
	next := append(append(make([]string, 0, len(old)+1), old...), s)
	modelTab.names.Store(&next)
	return i
}

func modelName(i uint16) string { return (*modelTab.names.Load())[i] }

// less orders literals for the normalized dependency bodies. ML
// literals compare by model name (not table index) so body order — and
// therefore the literal a dependency watches first and the provenance
// output — does not depend on interning order.
func (l Literal) less(o Literal) bool {
	if l.Kind != o.Kind {
		return l.Kind < o.Kind
	}
	if l.model != o.model {
		return l.ModelName() < o.ModelName()
	}
	if l.A != o.A {
		return l.A < o.A
	}
	return l.B < o.B
}

// A dependency l1 ∧ ... ∧ ln → l of the store H (Section V-A, data
// structure (2)) is a packed record of uint32 words: whenever every body
// literal is valid, the head must be enforced.
//
//	[0] header: n body literals (bits 0-7), index of the watched body
//	    literal (8-15), ready (30), dead (31)
//	[1] [2] next / previous dependency watching the same tuple; outside
//	    the store [1] carries the record's hash
//	[3..5] head literal, [6..] the n body literals, 3 words each (A, B,
//	    kind<<16 | model)
//
// Enumeration contexts build records in the same form (links zero), so
// recording one is a probe of the fingerprint table and a copy.
const (
	depHdrWords = 3
	depLitWords = 3
	depBodyOff  = depHdrWords + depLitWords
	maxDepBody  = 255

	depReady = 1 << 30 // every body literal holds: queued to fire next round
	depDead  = 1 << 31 // fired, dropped or evicted

	tagEmpty, tagGone = 0, 1 // table slot never used / vacated by kill

	depChunkBits  = 14 // 16 Ki words = 64 KiB per arena chunk
	depChunkWords = 1 << depChunkBits
	depChunkBytes = 4 * depChunkWords
	maxDepBytes   = depChunkBytes<<(32-depChunkBits) - depChunkBytes // what 32-bit references reach
)

func depSize(hdr uint32) int { return depBodyOff + depLitWords*int(hdr&0xff) }

func packLit(w []uint32, l Literal) []uint32 {
	return append(w, uint32(l.A), uint32(l.B), uint32(l.Kind)<<16|uint32(l.model))
}

func unpackLit(w []uint32) Literal {
	return Literal{A: relation.TID(w[0]), B: relation.TID(w[1]), model: uint16(w[2]), Kind: FactKind(w[2] >> 16)}
}

// appendDep packs dependency body → head (body normalized by the caller,
// at most maxDepBody literals) onto w.
func appendDep(w []uint32, body []Literal, head Literal) []uint32 {
	lo := len(w)
	w = packLit(append(w, uint32(len(body)), 0, 0), head)
	for _, l := range body {
		w = packLit(w, l)
	}
	w[lo+1] = depHash(w[lo+depHdrWords:])
	return w
}

// depHash fingerprints a record's head and body words: the top bits are
// its home slot in the table, the low byte its tag there.
func depHash(lits []uint32) uint32 {
	h := uint64(len(lits))
	for _, w := range lits {
		h = (h ^ uint64(w)) * 0x9E3779B97F4A7C15
		h ^= h >> 32
	}
	return uint32(h)
}

// depChunk is one fixed-size arena chunk: records back to back from
// offset 1 (reference 0 is nil), appended to while it is the newest and
// freed whole — with its last live record, or oldest-first under the byte
// budget.
type depChunk struct {
	w     []uint32
	epoch uint64 // allocation number: chunks, and with them dependencies, age by it
	live  int    // records not yet dead
}

// DepStore is the bounded dependency set H. A dependency is reached three
// ways, none of which scans the store: by content through an open-addressed
// table of (hash tag, reference) words, for deduplication; by the one body
// literal it *watches* — a literal not yet valid, chained from heads[A] —
// so a new fact visits exactly the dependencies waiting on its tuples; and
// by age through its chunk, for eviction.
//
// Capacity K bounds the entry count and the byte budget bounds the real
// resident bytes (chunks, table, watch heads); when either is hit
// dependencies are shed — newcomers dropped at the count bound, the oldest
// chunk evicted at the byte bound — and correctness falls back to the
// update-driven re-evaluation path of IncDeduce. A dependency whose head is
// found enforced when it is visited is discarded (it "will no longer be
// checked later on").
type DepStore struct {
	cap    int
	budget int64 // resident-byte bound; 0 = unbounded
	bytes  int64
	sat    func(Literal) bool // is the literal valid in Γ

	chunks []*depChunk // by slot (reference >> depChunkBits); nil = free
	cur    *depChunk   // the newest chunk, the only one appended to
	curRef uint32      // its slot << depChunkBits
	epoch  uint64

	// The fingerprint table, linear probing from hash >> shift: a byte of
	// the hash per slot (tagEmpty, tagGone, or ≥ 2) with the reference
	// beside it, so probing for a new dependency — the common case — reads
	// the small tag array only. used counts the slots not empty.
	tags  []uint8
	refs  []uint32
	shift uint
	used  int
	heads []uint32 // TID -> first dependency watching a literal of that tuple

	// justs is the side table of emit-time evidence by reference; nil
	// unless provenance is captured, and outside the byte account like the
	// log it feeds.
	justs map[uint32]*justification

	// ready collects dependencies with no literal left to watch; drain
	// takes them once per round (firing is the other half of the double
	// buffer, so wakes during the firing loop land in the next round).
	ready, firing []uint32

	live, dropped, evicted int
}

// NewDepStore creates a store with capacity k (k ≤ 0 means unbounded) over
// the validity oracle sat.
func NewDepStore(k int, sat func(Literal) bool) *DepStore {
	return &DepStore{cap: k, sat: sat}
}

// SetByteBudget bounds the store's resident bytes, evicting the oldest
// chunks of dependencies until they fit, now and whenever an insert would
// grow past the bound (spill-to-regeneration: the update-driven path
// re-derives anything evicted that still matters). n ≤ 0 removes the bound.
func (s *DepStore) SetByteBudget(n int64) {
	s.budget = max(n, 0)
	for s.budget > 0 && s.bytes > s.budget && s.evictOldest() {
	}
}

// Len returns the number of stored dependencies.
func (s *DepStore) Len() int { return s.live }

// Dropped returns how many dependencies were rejected for capacity.
func (s *DepStore) Dropped() int { return s.dropped }

// Evicted returns how many resident dependencies were displaced by the
// byte budget to make room for newer ones.
func (s *DepStore) Evicted() int { return s.evicted }

// MemBytes returns the store's resident bytes: arena chunks, fingerprint
// table and watch heads.
func (s *DepStore) MemBytes() int64 { return s.bytes }

// recount recomputes the byte account and the live count from the
// structures themselves, for the health auditor.
func (s *DepStore) recount() (bytes int64, live int) {
	bytes = 5*int64(cap(s.tags)) + 4*int64(cap(s.heads))
	for _, c := range s.chunks {
		if c == nil {
			continue
		}
		bytes += 4 * int64(cap(c.w))
		for off := 1; off < len(c.w); off += depSize(c.w[off]) {
			if c.w[off]&depDead == 0 {
				live++
			}
		}
	}
	return bytes, live
}

func (s *DepStore) rec(r uint32) []uint32 {
	return s.chunks[r>>depChunkBits].w[r&(depChunkWords-1):]
}

// add stores the packed dependency rec (appendDep) with its emit-time
// evidence j unless it is a duplicate or the store is full; it reports
// whether the dependency is stored (true also for duplicates). rec is
// copied, not retained. The body is checked against live Γ: the first
// literal not yet valid is watched, and a dependency that arrives with none
// is ready at once.
func (s *DepStore) add(rec []uint32, j *justification) bool {
	size, h := depSize(rec[0]), rec[1]
	tag := max(uint8(h), 2)
	if len(s.tags) > 0 {
		for i := h >> s.shift; s.tags[i] != tagEmpty; i = (i + 1) & uint32(len(s.tags)-1) {
			if s.tags[i] == tag {
				if o := s.rec(s.refs[i]); (o[0]^rec[0])&0xff == 0 && slices.Equal(o[depHdrWords:size], rec[depHdrWords:size]) {
					return true
				}
			}
		}
	}
	if s.cap > 0 && s.live >= s.cap || s.bytes > maxDepBytes {
		s.dropped++
		return false
	}
	// Make room: what the insert would allocate must fit the byte budget,
	// evicting oldest chunks (possibly the current one) until it does.
	for {
		var need int64
		if (s.used+1)*4 > len(s.tags)*3 {
			need = 5 * int64(depTableFor(s.live+1)-len(s.tags))
		}
		if s.cur == nil || len(s.cur.w)+size > depChunkWords {
			need += depChunkBytes
		}
		if s.budget <= 0 || s.bytes+need <= s.budget {
			break
		}
		if !s.evictOldest() {
			s.dropped++
			return false
		}
	}
	if (s.used+1)*4 > len(s.tags)*3 {
		s.rehash(depTableFor(s.live + 1))
	}
	c := s.cur
	if c == nil || len(c.w)+size > depChunkWords {
		c = s.newChunk()
	}
	r := s.curRef | uint32(len(c.w))
	c.w = append(c.w, rec[:size]...)
	o := c.w[len(c.w)-size:]
	if j != nil {
		if s.justs == nil {
			s.justs = make(map[uint32]*justification)
		}
		s.justs[r] = j
	}
	c.live++
	s.live++
	s.index(h, r)
	s.watch(r, o, 0)
	return true
}

// index enters reference r under hash h in the first empty slot of its run.
func (s *DepStore) index(h, r uint32) {
	i := h >> s.shift
	for s.tags[i] != tagEmpty {
		i = (i + 1) & uint32(len(s.tags)-1)
	}
	s.tags[i], s.refs[i] = max(uint8(h), 2), r
	s.used++
}

// depTableFor is the table size for n dependencies: the power of two, at
// least 1 Ki, that they fill at most half.
func depTableFor(n int) int {
	return max(1<<10, 1<<bits.Len(uint(2*n-1)))
}

// reserve sizes the table for up to n more dependencies at once, so a bulk
// merge does not rehash its way up. Under a byte budget inserts grow it
// step by step instead.
func (s *DepStore) reserve(n int) {
	if s.cap > 0 {
		n = min(n, s.cap-s.live)
	}
	if s.budget <= 0 && (s.used+n)*4 > len(s.tags)*3 {
		s.rehash(depTableFor(s.live + n))
	}
}

// rehash rebuilds the table at n slots from the arena, which sheds the
// slots kill vacated.
func (s *DepStore) rehash(n int) {
	s.bytes += 5 * int64(n-len(s.tags))
	s.tags, s.refs, s.used = make([]uint8, n), make([]uint32, n), 0
	s.shift = uint(32 - bits.TrailingZeros(uint(n)))
	for slot, c := range s.chunks {
		if c == nil {
			continue
		}
		for off := 1; off < len(c.w); off += depSize(c.w[off]) {
			if o := c.w[off:]; o[0]&depDead == 0 {
				s.index(depHash(o[depHdrWords:depSize(o[0])]), uint32(slot)<<depChunkBits|uint32(off))
			}
		}
	}
}

// newChunk makes a fresh chunk the current one, in the first free slot.
func (s *DepStore) newChunk() *depChunk {
	slot := slices.Index(s.chunks, nil)
	if slot < 0 {
		slot = len(s.chunks)
		s.chunks = append(s.chunks, nil)
	}
	s.epoch++
	s.cur = &depChunk{w: make([]uint32, 1, depChunkWords), epoch: s.epoch}
	s.curRef = uint32(slot) << depChunkBits
	s.chunks[slot] = s.cur
	s.bytes += depChunkBytes
	return s.cur
}

// evictOldest sheds the chunk allocated longest ago with every dependency
// still alive in it. It reports whether there was one.
func (s *DepStore) evictOldest() bool {
	slot := -1
	for i, c := range s.chunks {
		if c != nil && (slot < 0 || c.epoch < s.chunks[slot].epoch) {
			slot = i
		}
	}
	if slot < 0 {
		return false
	}
	c, base := s.chunks[slot], uint32(slot)<<depChunkBits
	for off := 1; c.live > 0; { // kill frees the chunk with its last live record
		o := c.w[off:]
		r := base | uint32(off)
		off += depSize(o[0])
		if o[0]&depDead != 0 {
			continue
		}
		if o[0]&depReady != 0 {
			s.ready = slices.DeleteFunc(s.ready, func(x uint32) bool { return x == r })
		} else {
			s.unwatch(o)
		}
		s.kill(r, o)
		s.evicted++
	}
	if n := depTableFor(s.live + 1); 2*n < len(s.tags) { // give the table's share back too
		s.rehash(n)
	}
	return true
}

// kill retires dependency r (already off its watch chain): out of the
// tables, and its chunk freed when it was the last alive there.
func (s *DepStore) kill(r uint32, o []uint32) {
	i := depHash(o[depHdrWords:depSize(o[0])]) >> s.shift
	for s.refs[i] != r || s.tags[i] < 2 {
		i = (i + 1) & uint32(len(s.tags)-1)
	}
	s.tags[i] = tagGone
	o[0] |= depDead
	s.live--
	delete(s.justs, r)
	c := s.chunks[r>>depChunkBits]
	if c.live--; c.live > 0 {
		return
	}
	if s.chunks[r>>depChunkBits] = nil; c == s.cur {
		s.cur = nil
	}
	s.bytes -= depChunkBytes
}

// watch chains dependency r under the first body literal from index `from`
// on that is not valid yet, or queues it as ready when none is left.
func (s *DepStore) watch(r uint32, o []uint32, from int) {
	for i, n := from, int(o[0]&0xff); i < n; i++ {
		l := o[depBodyOff+depLitWords*i:]
		if s.sat(unpackLit(l)) {
			continue
		}
		t := int(l[0])
		if t >= len(s.heads) {
			c := cap(s.heads)
			s.heads = append(s.heads, make([]uint32, t+1-len(s.heads))...)
			s.bytes += 4 * int64(cap(s.heads)-c)
			s.heads = s.heads[:cap(s.heads)]
		}
		o[0] = o[0]&^0xff00 | uint32(i)<<8
		o[1], o[2] = s.heads[t], 0
		if o[1] != 0 {
			s.rec(o[1])[2] = r
		}
		s.heads[t] = r
		return
	}
	o[0] |= depReady
	s.ready = append(s.ready, r)
}

// unwatch unlinks a dependency from the chain of its watched literal.
func (s *DepStore) unwatch(o []uint32) {
	if o[2] != 0 {
		s.rec(o[2])[1] = o[1]
	} else {
		s.heads[o[depBodyOff+depLitWords*int(o[0]>>8&0xff)]] = o[1]
	}
	if o[1] != 0 {
		s.rec(o[1])[2] = o[2]
	}
}

// wake visits the dependencies watching a literal of the tuples ts, after a
// fact involving them entered Γ (the members of two merged classes, or the
// first tuple of a validated prediction): one whose head is enforced by now
// is discarded, one whose watched literal became valid moves its watch to
// the next invalid literal or becomes ready, the rest stay. It returns the
// number visited — the whole cost of keeping H current.
func (s *DepStore) wake(ts ...relation.TID) (visited int64) {
	for _, t := range ts {
		if int(t) >= len(s.heads) {
			continue
		}
		for r := s.heads[t]; r != 0; visited++ {
			o := s.rec(r)
			next, w := o[1], int(o[0]>>8&0xff)
			switch {
			case s.sat(unpackLit(o[depHdrWords:])):
				s.unwatch(o)
				s.kill(r, o)
			case s.sat(unpackLit(o[depBodyOff+depLitWords*w:])):
				s.unwatch(o)
				s.watch(r, o, w+1)
			}
			r = next
		}
	}
	return visited
}

// fireReady retires the dependencies whose bodies became fully valid since
// the last call and hands their heads to apply, oldest first: when two
// fired heads land in the same union-find class only the first applied
// becomes a Γ fact, and insertion order picks it. With prov set each head
// comes with its justification: the emit-time evidence plus the body
// literals that have since entered Γ (a dependency recorded without
// evidence still names its prerequisite facts). What apply wakes is ready
// for the next call, not this one. It returns the number fired.
func (s *DepStore) fireReady(prov bool, apply func(head Literal, j *justification)) int {
	s.ready, s.firing = s.firing[:0], s.ready
	age := func(r uint32) uint64 {
		return s.chunks[r>>depChunkBits].epoch<<depChunkBits | uint64(r&(depChunkWords-1))
	}
	slices.SortFunc(s.firing, func(a, b uint32) int { return cmp.Compare(age(a), age(b)) })
	for _, r := range s.firing {
		o := s.rec(r)
		var j *justification
		if prov {
			j = &justification{}
			if ev := s.justs[r]; ev != nil {
				*j = *ev
			}
			j.origin = provenance.OriginDep
			n := int(o[0] & 0xff)
			j.deps = append(make([]Literal, 0, len(j.deps)+n), j.deps...)
			for i := 0; i < n; i++ {
				j.deps = append(j.deps, unpackLit(o[depBodyOff+depLitWords*i:]))
			}
		}
		head := unpackLit(o[depHdrWords:])
		s.kill(r, o)
		apply(head, j)
	}
	return len(s.firing)
}
