package wire

import (
	"fmt"

	"dcer/internal/relation"
)

// dictOut is the sending side of a connection direction's symbol
// dictionary. Strings intern into a relation.SymTab (dense ids, bytes in
// pointer-free chunks); the shipped watermark tracks how many entries the
// peer has already received, so each batch only carries
// SymTab.Since(shipped) — the delta — and every symbol crosses the wire at
// most once per direction.
type dictOut struct {
	tab     *relation.SymTab
	shipped int
}

func newDictOut() *dictOut { return &dictOut{tab: relation.NewSymTab()} }

// id interns s, assigning the next dense id on first sight.
func (d *dictOut) id(s string) uint64 { return uint64(d.tab.Intern(s)) }

// dictIn is the receiving side: a dense table grown strictly by applying
// deltas in frame order. Ids index the table; an id at or past the table
// length means the sender violated the delta-before-use ordering (or the
// stream is corrupt) and decodes as an error.
type dictIn struct {
	strs []string
}

// str resolves a wire id.
func (d *dictIn) str(id uint64) (string, error) {
	if id >= uint64(len(d.strs)) {
		return "", fmt.Errorf("wire: dictionary id %d out of range (table has %d entries)", id, len(d.strs))
	}
	return d.strs[id], nil
}

// writeDictDelta frames the delta the peer is missing: count, then each
// string length-prefixed, ids implicit (the receiver's next dense ids).
// The watermark advances past it immediately — the delta is part of the same frame
// as the facts that reference it, so a successfully framed batch always
// carries its own definitions first.
func (fw *frameWriter) writeDictDelta(d *dictOut) {
	delta := d.tab.Since(d.shipped)
	fw.uvarint(uint64(len(delta)))
	for _, s := range delta {
		fw.str(s)
		if fw.stats != nil {
			fw.stats.DictStrings.Add(1)
			fw.stats.DictBytes.Add(int64(len(s)))
		}
	}
	d.shipped += len(delta)
}

// readDictDelta decodes a delta section and appends it in order.
func (p *payload) readDictDelta(d *dictIn) error {
	n, err := p.length()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		s, err := p.str()
		if err != nil {
			return err
		}
		d.strs = append(d.strs, s)
	}
	return nil
}
