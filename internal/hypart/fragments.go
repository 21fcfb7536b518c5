package hypart

import (
	"encoding/binary"
	"fmt"
	"math"

	"dcer/internal/relation"
)

// Fragment serialization: the binary form a worker fragment takes on the
// distributed DMatch wire. Fragments and per-rule scopes are strictly
// ascending TID lists (BuildFragments drains them from a bitset), and one
// form carries every list: uvarint(count), then uvarint deltas, each id
// minus the one before it (the first id minus -1). At TPCH scale the
// deltas are small (dense id ranges per block), so most ids cost one byte
// instead of up to five. A zero delta, or an id past the TID domain, is
// malformed, so the decoder hands a worker only the ascending lists
// Dataset.Fragment's scan lists and the chase's GID windows rely on.

// AppendTIDs appends one strictly ascending TID list to buf in the packed
// form above and returns the extended buffer. It panics on a list that is
// not strictly ascending, which no partition produces.
func AppendTIDs(buf []byte, ids []relation.TID) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	prev := int64(-1)
	for _, id := range ids {
		if int64(id) <= prev {
			panic(fmt.Sprintf("hypart: TID list not strictly ascending: %d after %d", id, prev))
		}
		buf = binary.AppendUvarint(buf, uint64(int64(id)-prev))
		prev = int64(id)
	}
	return buf
}

// ReadTIDs decodes one packed TID list from b, returning the list and the
// unconsumed remainder. Malformed input returns an error, never panics:
// counts are bounded by the remaining bytes, a zero delta (a repeated or
// descending list) is refused and every id is range-checked against the
// TID domain.
func ReadTIDs(b []byte) ([]relation.TID, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, nil, fmt.Errorf("hypart: truncated TID list: bad count")
	}
	b = b[sz:]
	// Every id costs at least one byte; reject counts the remaining bytes
	// cannot possibly hold so corrupt counts fail before allocating.
	if n > uint64(len(b)) {
		return nil, nil, fmt.Errorf("hypart: TID count %d exceeds %d remaining bytes", n, len(b))
	}
	ids := make([]relation.TID, 0, n)
	prev := int64(-1)
	for i := uint64(0); i < n; i++ {
		delta, sz := binary.Uvarint(b)
		if sz <= 0 {
			return nil, nil, fmt.Errorf("hypart: truncated TID list at id %d/%d", i, n)
		}
		b = b[sz:]
		if delta == 0 {
			return nil, nil, fmt.Errorf("hypart: TID list not strictly ascending at id %d/%d", i, n)
		}
		if delta > uint64(math.MaxInt32-prev) {
			return nil, nil, fmt.Errorf("hypart: TID %d+%d out of range", prev, delta)
		}
		prev += int64(delta)
		ids = append(ids, relation.TID(prev))
	}
	return ids, b, nil
}

// AppendFragment appends a worker's full assignment — its fragment plus
// the per-rule scope lists — to buf.
func AppendFragment(buf []byte, frag []relation.TID, ruleFrags [][]relation.TID) []byte {
	buf = AppendTIDs(buf, frag)
	buf = binary.AppendUvarint(buf, uint64(len(ruleFrags)))
	for _, ids := range ruleFrags {
		buf = AppendTIDs(buf, ids)
	}
	return buf
}

// ReadFragment is the inverse of AppendFragment.
func ReadFragment(b []byte) (frag []relation.TID, ruleFrags [][]relation.TID, rest []byte, err error) {
	frag, b, err = ReadTIDs(b)
	if err != nil {
		return nil, nil, nil, err
	}
	nr, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, nil, nil, fmt.Errorf("hypart: truncated fragment: bad rule count")
	}
	b = b[sz:]
	// Each rule list costs at least one byte (its count).
	if nr > uint64(len(b)) {
		return nil, nil, nil, fmt.Errorf("hypart: rule count %d exceeds %d remaining bytes", nr, len(b))
	}
	ruleFrags = make([][]relation.TID, 0, nr)
	for i := uint64(0); i < nr; i++ {
		var ids []relation.TID
		ids, b, err = ReadTIDs(b)
		if err != nil {
			return nil, nil, nil, err
		}
		ruleFrags = append(ruleFrags, ids)
	}
	return frag, ruleFrags, b, nil
}
