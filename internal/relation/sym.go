package relation

import (
	"fmt"
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

// symChunk is the byte-chunk size. Strings longer than a quarter chunk
// get a chunk of their own so a single outlier cannot strand most of a
// chunk.
const symChunk = 1 << 16

// A string's ref packs where its bytes lie: chunk<<refChunkShift |
// offset<<refLenBits | length. An offset lies within a symChunk; a
// string holds at most maxSymLen bytes, and a table at most 1<<22 chunks.
const (
	refLenBits    = 26
	refChunkShift = refLenBits + 16
	maxSymLen     = 1<<refLenBits - 1
)

// symSeed keys every string hash; hashes place strings, never decide Syms.
var symSeed = maphash.MakeSeed()

func strHash(s string) uint32 { return uint32(maphash.String(symSeed, s)) }

// strIndex indexes a dense string list by hash: a slot holds hash32<<32 |
// id+1 (0 is empty), probed linearly, doubled at ½ load; a probe compares
// the hash, then the string. Many lookups of a load miss (a string's
// first sight), and a miss probes to the end of the run it hashes into,
// which stays short at ½ load.
type strIndex struct {
	slots []uint64
	n     int
}

// lookup returns the id under hash h for which is(id) holds, or -1. is
// is asked only of ids whose hash is h.
func (x *strIndex) lookup(h uint32, is func(id int) bool) int {
	mask := uint32(len(x.slots) - 1)
	for i := h & mask; len(x.slots) > 0 && x.slots[i] != 0; i = (i + 1) & mask {
		if e := x.slots[i]; uint32(e>>32) == h && is(int(uint32(e))-1) {
			return int(uint32(e)) - 1
		}
	}
	return -1
}

// insert records id under hash h; its string must not be indexed yet.
func (x *strIndex) insert(h uint32, id int) {
	if 2*(x.n+1) > len(x.slots) {
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

// SymTab interns strings into dense Syms. It stores them without
// pointers: the bytes in fixed chunks that never move, and each Sym's ref
// in a []uint64. Interning is safe for concurrent use; Str is lock-free
// and Find read-locked, so parallel drains and index probes never
// serialize on the writer lock.
type SymTab struct {
	mu     sync.RWMutex
	index  strIndex
	refs   []uint64 // by Sym
	chunks [][]byte // chunks[0] is nil, the empty string's
	cur    int      // the chunk short strings go to (0: none yet)
	fill   int      // bytes used of chunks[cur]
	n      atomic.Int32
	view   atomic.Pointer[symView]
}

// symView is what Str reads: refs and chunks to their capacity. The
// writer fills entries past Len in place and stores a new view only when
// it reallocates either list, so entries a reader can be given a Sym for
// are never rewritten.
type symView struct {
	refs   []uint64
	chunks [][]byte
}

// NewSymTab creates an empty symbol table.
func NewSymTab() *SymTab {
	st := &SymTab{chunks: [][]byte{nil}}
	st.publish()
	return st
}

func (st *SymTab) publish() {
	st.view.Store(&symView{refs: st.refs[:cap(st.refs)], chunks: st.chunks[:cap(st.chunks)]})
}

// str decodes ref against chunks. Refs are made by copyIn alone, so the
// bytes lie within the chunk, and str adds the offset to the chunk's base
// without a slice expression's bounds checks, which made Str twice as
// slow on random Syms.
func str(chunks [][]byte, ref uint64) string {
	b := unsafe.Pointer(unsafe.SliceData(chunks[ref>>refChunkShift]))
	return unsafe.String((*byte)(unsafe.Add(b, ref>>refLenBits&(1<<16-1))), int(ref&maxSymLen))
}

// find returns the Sym of s, whose strHash is h, or -1. Must hold st.mu.
func (st *SymTab) find(s string, h uint32) int {
	return st.index.lookup(h, func(id int) bool { return str(st.chunks, st.refs[id]) == s })
}

// add interns s, which is not in the table, under hash h. Must hold st.mu
// for writing.
func (st *SymTab) add(s string, h uint32) Sym {
	id, refs, chunks := len(st.refs), cap(st.refs), cap(st.chunks)
	st.refs = append(st.refs, st.copyIn(s))
	if cap(st.refs) != refs || cap(st.chunks) != chunks {
		st.publish()
	}
	st.index.insert(h, id)
	st.n.Store(int32(id + 1))
	return Sym(id)
}

// copyIn copies s into the chunks and returns its ref: short strings go
// to the chunk at cur, a new one when it is full; a longer one gets a
// chunk of its own. Must hold st.mu for writing.
func (st *SymTab) copyIn(s string) uint64 {
	if len(s) == 0 {
		return 0
	}
	if len(s) > maxSymLen || len(st.chunks) == 1<<(64-refChunkShift) {
		panic(fmt.Sprintf("relation: no room for a %d-byte string in a symbol table of %d chunks", len(s), len(st.chunks)))
	}
	c, off := st.cur, st.fill
	if len(s) > symChunk/4 {
		c, off = len(st.chunks), 0
		st.chunks = append(st.chunks, []byte(s))
	} else {
		if c == 0 || off+len(s) > symChunk {
			c, off = len(st.chunks), 0
			st.chunks = append(st.chunks, make([]byte, symChunk))
			st.cur = c
		}
		st.fill = off + copy(st.chunks[c][off:], s)
	}
	return uint64(c)<<refChunkShift | uint64(off)<<refLenBits | uint64(len(s))
}

// Intern returns the Sym for s, assigning the next dense id on first
// sight. It hashes s once: a read-locked lookup, then, for a new string, a
// write-locked one and the add. The bytes of s are copied into the table;
// the caller's string is not retained.
func (st *SymTab) Intern(s string) Sym {
	h := strHash(s)
	st.mu.RLock()
	id := st.find(s, h)
	st.mu.RUnlock()
	if id >= 0 {
		return Sym(id)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.findOrAdd(s, h)
}

// findOrAdd returns the Sym of s, whose strHash is h, adding s when it is
// new. Must hold st.mu for writing.
func (st *SymTab) findOrAdd(s string, h uint32) Sym {
	if id := st.find(s, h); id >= 0 {
		return Sym(id)
	}
	return st.add(s, h)
}

// internPiece interns a CSV piece's dictionary in order under one lock
// into out: the strings at refs (offset<<32 | length) into b, with their
// strHashes. The table copies them.
func (st *SymTab) internPiece(b []byte, refs []uint64, hashes []uint32, out []Sym) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, ref := range refs {
		out[i] = st.findOrAdd(pieceStr(b, ref), hashes[i])
	}
}

// Find returns the Sym for s without interning it, and whether it is
// known. Safe for concurrent use with Intern.
func (st *SymTab) Find(s string) (Sym, bool) {
	h := strHash(s)
	st.mu.RLock()
	id := st.find(s, h)
	st.mu.RUnlock()
	if id < 0 {
		return 0, false
	}
	return Sym(id), true
}

// Str returns the string for a Sym: a view of the table's bytes, which
// never move or change. Lock-free.
func (st *SymTab) Str(id Sym) string {
	v := st.view.Load()
	return str(v.chunks, v.refs[id])
}

// Len returns the number of distinct interned strings.
func (st *SymTab) Len() int { return int(st.n.Load()) }

// Since returns the strings interned at ids from..Len()-1, in id order:
// the dictionary delta a peer that has already seen the first `from`
// symbols is missing. The list is the caller's; its strings are views of
// the table, as Str's are. It is empty when from >= Len(). Safe for
// concurrent use with Intern; the watermark discipline of wire encoders
// relies on ids being dense and append-only.
func (st *SymTab) Since(from int) []string {
	n := st.Len()
	if from = max(from, 0); from >= n {
		return nil
	}
	out := make([]string, n-from)
	for i := range out {
		out[i] = st.Str(Sym(from + i))
	}
	return out
}

// Bytes estimates the table's memory footprint: its chunks, its refs and
// the index's slots.
func (st *SymTab) Bytes() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	n := int64(cap(st.refs)+len(st.index.slots)) * 8
	for _, c := range st.chunks {
		n += int64(len(c))
	}
	return n
}
