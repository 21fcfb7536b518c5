package relation

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Sym is a dense interned-string identifier. Every distinct string value
// in a dataset maps to exactly one Sym, so string equality on the chase
// hot path degenerates to integer equality and columnar storage packs a
// string attribute as one uint32-wide word per row.
type Sym uint32

// symChunk is the byte-arena chunk size. Strings longer than a quarter
// chunk get a private allocation so a single outlier cannot strand most
// of a chunk.
const symChunk = 1 << 16

// symSeed keys every string hash; hashes place strings, never decide Syms.
var symSeed = maphash.MakeSeed()

func strHash(s string) uint32 { return uint32(maphash.String(symSeed, s)) }

// strIndex indexes a dense string list by hash: a slot holds hash32<<32 |
// id+1 (0 is empty), probed linearly, doubled at ¾ load; a probe compares
// the hash, then the string.
type strIndex struct {
	slots []uint64
	n     int
}

// lookup returns the id of s (whose hash is h) in strs, or -1.
func (x *strIndex) lookup(strs []string, s string, h uint32) int {
	mask := uint32(len(x.slots) - 1)
	for i := h & mask; len(x.slots) > 0 && x.slots[i] != 0; i = (i + 1) & mask {
		if e := x.slots[i]; uint32(e>>32) == h && strs[uint32(e)-1] == s {
			return int(uint32(e)) - 1
		}
	}
	return -1
}

// insert records id under hash h; its string must not be indexed yet.
func (x *strIndex) insert(h uint32, id int) {
	if 4*(x.n+1) > 3*len(x.slots) {
		old := x.slots
		x.slots, x.n = make([]uint64, max(2*len(old), 64)), 0
		for _, e := range old {
			if e != 0 {
				x.insert(uint32(e>>32), int(uint32(e))-1)
			}
		}
	}
	mask := uint32(len(x.slots) - 1)
	i := h & mask
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = uint64(h)<<32 | uint64(id+1)
	x.n++
}

// SymTab interns strings into dense Syms backed by a chunked byte arena
// (a handful of large []byte blocks, not one heap object per string) and
// a flat strIndex. Interning is safe for concurrent use; the read paths
// (Str, Find) stay lock-free and read-locked respectively, so parallel
// drains and index probes never serialize on the writer lock.
type SymTab struct {
	mu    sync.RWMutex
	index strIndex // over *strs
	strs  atomic.Pointer[[]string]
	arena []byte
	bytes atomic.Int64 // arena bytes reserved (chunks + oversized strings)
}

// NewSymTab creates an empty symbol table.
func NewSymTab() *SymTab {
	st := &SymTab{}
	empty := []string(nil)
	st.strs.Store(&empty)
	return st
}

// Intern returns the Sym for s, assigning the next dense id on first
// sight. The bytes of s are copied into the table's arena; the caller's
// string is not retained.
func (st *SymTab) Intern(s string) Sym {
	if id, ok := st.Find(s); ok {
		return id
	}
	var out [1]Sym
	st.internHashed([]string{s}, []uint32{strHash(s)}, out[:])
	return out[0]
}

// internHashed interns strs (with their strHashes) in order under one
// lock into out. The arena copies them, so they may alias a scratch buffer.
func (st *SymTab) internHashed(strs []string, hashes []uint32, out []Sym) {
	st.mu.Lock()
	defer st.mu.Unlock()
	all := *st.strs.Load()
	for i, s := range strs {
		id := st.index.lookup(all, s, hashes[i])
		if id < 0 {
			id = len(all)
			all = append(all, st.copyIn(s))
			st.index.insert(hashes[i], id)
		}
		out[i] = Sym(id)
	}
	st.strs.Store(&all)
}

// copyIn copies s into the arena and returns a string header over the
// arena bytes. Must hold st.mu.
func (st *SymTab) copyIn(s string) string {
	if len(s) == 0 {
		return ""
	}
	if len(s) > symChunk/4 {
		b := append([]byte(nil), s...)
		st.bytes.Add(int64(len(b)))
		return unsafe.String(&b[0], len(b))
	}
	if len(st.arena)+len(s) > cap(st.arena) {
		st.arena = make([]byte, 0, symChunk)
		st.bytes.Add(symChunk)
	}
	off := len(st.arena)
	st.arena = append(st.arena, s...)
	return unsafe.String(&st.arena[off], len(s))
}

// Find returns the Sym for s without interning it, and whether it is
// known. Safe for concurrent use with Intern.
func (st *SymTab) Find(s string) (Sym, bool) {
	h := strHash(s)
	st.mu.RLock()
	id := st.index.lookup(*st.strs.Load(), s, h)
	st.mu.RUnlock()
	if id < 0 {
		return 0, false
	}
	return Sym(id), true
}

// Str returns the string for a Sym. Lock-free: the string slice only
// ever grows, and every published header covers all Syms issued before
// it was stored.
func (st *SymTab) Str(id Sym) string {
	return (*st.strs.Load())[id]
}

// Len returns the number of distinct interned strings.
func (st *SymTab) Len() int {
	return len(*st.strs.Load())
}

// Since returns the strings interned at ids from..Len()-1, in id order:
// the dictionary delta a peer that has already seen the first `from`
// symbols is missing. The returned slice aliases the table (interned
// strings are immutable) and is empty when from >= Len(). Safe for
// concurrent use with Intern; the watermark discipline of wire encoders
// relies on ids being dense and append-only.
func (st *SymTab) Since(from int) []string {
	strs := *st.strs.Load()
	if from < 0 {
		from = 0
	}
	if from >= len(strs) {
		return nil
	}
	return strs[from:]
}

// Bytes estimates the table's memory footprint: arena bytes, one string
// header per symbol, and the index's slots.
func (st *SymTab) Bytes() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.bytes.Load() + int64(st.Len())*16 + int64(len(st.index.slots))*8
}
