package relation

import "fmt"

// TID is a global tuple identifier, unique across an entire Dataset.
// The chase engine keys its id-equivalence relation on TIDs.
type TID int32

// Tuple is one row of a relation: the public view of a tuple. Inside
// the engine a tuple is its GID alone, and a column word is read through
// the dataset's row table (Relation.Word); a Tuple is that GID together
// with its relation and row, for callers outside the engine. The
// attribute payloads live in per-attribute word columns (interned Syms for
// strings, bit-packed numerics), addressed by Row. GID is assigned by the
// owning Dataset when the tuple is appended and is unique dataset-wide.
// Tuples are slab-allocated by the dataset, so taking *Tuple pointers
// stays cheap and stable.
type Tuple struct {
	GID TID
	Row int32 // row within the owning relation's columns
	Rel int   // index of the relation within the dataset
	rel *Relation
}

// Arity returns the tuple's attribute count.
func (t *Tuple) Arity() int { return len(t.rel.cols) }

// Word returns the packed storage word of attribute i: the Sym for
// string attributes, PackNum(payload) for numerics. Words of the same
// attribute (or any equality-joined attribute of the same type) compare
// equal iff the boxed values do, except NaN (see PackNum).
func (t *Tuple) Word(i int) uint64 { return t.rel.cols[i][t.Row] }

// Val unboxes attribute i into a Value. String payloads are the interned
// chunk-backed strings, so two equal Vals from the same dataset compare
// by pointer before falling back to byte comparison.
func (t *Tuple) Val(i int) Value { return t.rel.val(t.Row, i) }

// Values materializes the full attribute vector. Compatibility shim for
// cold paths (CSV output, debug rendering, tests); it allocates, so hot
// paths use Val/Word instead.
func (t *Tuple) Values() []Value {
	out := make([]Value, t.Arity())
	for i := range out {
		out[i] = t.Val(i)
	}
	return out
}

// ID returns the tuple's designated id-attribute value under schema s.
func (t *Tuple) ID(s *Schema) Value { return t.Val(s.IDAttr) }

// Relation is an instance D_i of a relation schema.
type Relation struct {
	Schema *Schema
	// Tuples lists the handles of the relation's tuples, in row (and GID)
	// order.
	Tuples []*Tuple

	syms *SymTab
	cols [][]uint64 // one packed column per attribute; row = Tuple.Row
	tids []TID      // the GIDs of Tuples, in the same order: the scan list
	loc  *rowTable  // the root dataset's GID -> (relation, row) table
}

// Syms returns the symbol table backing this relation's string columns.
func (r *Relation) Syms() *SymTab { return r.syms }

// TIDs lists the GIDs of the relation's tuples, GID-ascending: the scan
// list, in the order of Tuples, so the tuple at position i has row i.
func (r *Relation) TIDs() []TID { return r.tids }

// Col returns the packed storage column of attribute i, indexed by row.
// The chase's compiled predicate plans hoist it once per candidate batch
// and run their filter loops directly over the words, reading each
// candidate's row from Dataset.Rows.
func (r *Relation) Col(i int) []uint64 { return r.cols[i] }

// Word returns the packed storage word of attribute i of the tuple with
// GID id, which must be one of the relation's tuples:
// the Sym for string attributes, PackNum(payload) for numerics. Words of
// the same attribute (or any equality-joined attribute of the same type)
// compare equal iff the boxed values do, except NaN (see PackNum).
func (r *Relation) Word(id TID, i int) uint64 { return r.cols[i][r.loc.row[id]] }

// Val unboxes attribute i of the tuple with GID id (see Word) into a
// Value.
func (r *Relation) Val(id TID, i int) Value { return r.val(r.loc.row[id], i) }

func (r *Relation) val(row int32, i int) Value {
	w := r.cols[i][row]
	switch r.Schema.Attrs[i].Type {
	case TypeString:
		return Value{Kind: TypeString, Str: r.syms.Str(Sym(w))}
	case TypeInt:
		return Value{Kind: TypeInt, Num: unpackNum(w)}
	default:
		return Value{Kind: TypeFloat, Num: unpackNum(w)}
	}
}

// rowTable maps every GID of a dataset to its tuple's relation and row.
type rowTable struct {
	rel []int32
	row []int32
}

// tupleSlab is how many Tuple handles one slab chunk of appended tuples
// holds (96KiB per chunk at 24 bytes per handle); a CSV load hands out its
// tuples from one slab of its own.
const tupleSlab = 4096

// Dataset is an instance D = (D_1, ..., D_m) of a database schema.
type Dataset struct {
	DB        *Database
	Relations []*Relation

	// syms interns every string payload in the dataset.
	syms *SymTab

	// tuples lists the tuples in GID order, so a tuple's position is its
	// GID.
	tuples []*Tuple

	// loc is the row table, shared by the relations.
	loc *rowTable

	slab []Tuple // current tuple slab chunk; full chunks are only
	// reachable through the *Tuple pointers handed out
}

// NewDataset creates an empty dataset over db.
func NewDataset(db *Database) *Dataset {
	d := &Dataset{
		DB:        db,
		Relations: make([]*Relation, len(db.Schemas)),
		syms:      NewSymTab(),
		loc:       &rowTable{},
	}
	for i, s := range db.Schemas {
		d.Relations[i] = &Relation{Schema: s, syms: d.syms, cols: make([][]uint64, s.Arity()), loc: d.loc}
	}
	return d
}

// Syms returns the dataset's symbol table.
func (d *Dataset) Syms() *SymTab { return d.syms }

// Reserve pre-sizes the named relation's columns and tuple lists, and the
// row table, for n additional rows, so bulk loaders avoid growth copies.
func (d *Dataset) Reserve(rel string, n int) {
	ri := d.DB.SchemaIndex(rel)
	if ri < 0 || n <= 0 {
		return
	}
	r := d.Relations[ri]
	for i := range r.cols {
		r.cols[i] = reserve(r.cols[i], n)
	}
	r.Tuples = reserve(r.Tuples, n)
	r.tids = reserve(r.tids, n)
	// The row table serves every relation: add n to the room earlier
	// reservations made instead of sharing that room.
	d.loc.rel = reserve(d.loc.rel, cap(d.loc.rel)-len(d.loc.rel)+n)
	d.loc.row = reserve(d.loc.row, cap(d.loc.row)-len(d.loc.row)+n)
}

// reserve returns s with room for exactly n more elements, unless it has
// that room already.
func reserve[E any](s []E, n int) []E {
	if cap(s)-len(s) >= n {
		return s
	}
	grown := make([]E, len(s), len(s)+n)
	copy(grown, s)
	return grown
}

// resize sets the length of every list a load fills: relation ri's columns
// and scan lists to rows[ri]+added[ri], the dataset's tuples and row
// table to base plus the added rows. Growing reserves room for exactly
// that.
func (d *Dataset) resize(base int, rows, added []int) {
	n := base
	for ri, r := range d.Relations {
		k := rows[ri] + added[ri]
		for c := range r.cols {
			r.cols[c] = setLen(r.cols[c], k)
		}
		r.Tuples, r.tids = setLen(r.Tuples, k), setLen(r.tids, k)
		n += added[ri]
	}
	d.tuples = setLen(d.tuples, n)
	d.loc.rel, d.loc.row = setLen(d.loc.rel, n), setLen(d.loc.row, n)
}

// setLen returns s at length n, reserving room when it has too little.
func setLen[E any](s []E, n int) []E { return reserve(s, n-len(s))[:n] }

// Append adds a tuple with the given values to the named relation and
// returns it. The values must match the schema arity and every value's
// Kind must match its attribute type exactly — in particular int and
// float do not coerce, so an I(…) value cannot fill a float attribute
// (nor F(…) an int one); the error names the attribute, the offending
// value, and the constructor that would fix it. The values slice is not
// retained: payloads are packed into the relation's columns.
func (d *Dataset) Append(rel string, values ...Value) (*Tuple, error) {
	ri := d.DB.SchemaIndex(rel)
	if ri < 0 {
		return nil, fmt.Errorf("relation: no relation %q", rel)
	}
	s := d.DB.Schemas[ri]
	if len(values) != s.Arity() {
		return nil, fmt.Errorf("relation: %s expects %d values, got %d", rel, s.Arity(), len(values))
	}
	for i, v := range values {
		if v.Kind == s.Attrs[i].Type {
			if len(v.Str) > maxSymLen {
				return nil, fmt.Errorf("relation: %s.%s: a %d-byte string, past the %d bytes a symbol holds", rel, s.Attrs[i].Name, len(v.Str), maxSymLen)
			}
			continue
		}
		want, got := s.Attrs[i].Type, v.Kind
		if (want == TypeInt && got == TypeFloat) || (want == TypeFloat && got == TypeInt) {
			ctor := "I(…)"
			if want == TypeFloat {
				ctor = "F(…)"
			}
			return nil, fmt.Errorf("relation: %s.%s expects %s, got %s value %s (numeric kinds do not coerce; construct the value with %s)",
				rel, s.Attrs[i].Name, want, got, v, ctor)
		}
		return nil, fmt.Errorf("relation: %s.%s expects %s, got %s value %q",
			rel, s.Attrs[i].Name, want, got, v.String())
	}
	return d.appendPacked(ri, values), nil
}

// AppendUnchecked is the trusted bulk-load fast path: it skips the name
// resolution and per-value Kind checks of Append. ri is the relation's
// schema index (resolve once with d.DB.SchemaIndex) and the caller
// guarantees len(values) == arity with kinds matching the schema —
// values are packed by the schema's attribute types, so a kind mismatch
// silently stores the wrong payload rather than erroring. Used by the
// synthetic generators and CSV ingest, where the values were just
// constructed from the schema itself.
func (d *Dataset) AppendUnchecked(ri int, values ...Value) *Tuple {
	return d.appendPacked(ri, values)
}

// appendPacked packs values into relation ri's columns (by schema
// attribute type) and hands out a slab-allocated tuple handle.
func (d *Dataset) appendPacked(ri int, values []Value) *Tuple {
	r := d.Relations[ri]
	for i, v := range values {
		var w uint64
		if r.Schema.Attrs[i].Type == TypeString {
			w = uint64(d.syms.Intern(v.Str))
		} else {
			w = PackNum(v.Num)
		}
		r.cols[i] = append(r.cols[i], w)
	}
	return d.handOut(ri)
}

// handOut hands out a slab-allocated tuple for relation ri's next row and
// enters it in the relation's scan list and the row table.
func (d *Dataset) handOut(ri int) *Tuple {
	r := d.Relations[ri]
	row := int32(len(r.Tuples))
	if len(d.slab) == cap(d.slab) {
		d.slab = make([]Tuple, 0, tupleSlab)
	}
	gid := TID(len(d.tuples))
	d.slab = append(d.slab, Tuple{GID: gid, Row: row, Rel: ri, rel: r})
	t := &d.slab[len(d.slab)-1]
	d.tuples = append(d.tuples, t)
	r.Tuples = append(r.Tuples, t)
	r.tids = append(r.tids, gid)
	d.loc.rel = append(d.loc.rel, int32(ri))
	d.loc.row = append(d.loc.row, row)
	return t
}

// MustAppend is Append that panics on error; for tests and fixtures.
func (d *Dataset) MustAppend(rel string, values ...Value) *Tuple {
	t, err := d.Append(rel, values...)
	if err != nil {
		panic(err)
	}
	return t
}

// Tuple returns the tuple with the given GID, or nil when no tuple has it.
func (d *Dataset) Tuple(id TID) *Tuple {
	if uint(id) >= uint(len(d.tuples)) {
		return nil
	}
	return d.tuples[id]
}

// Rows is the row table: the row of every GID in its relation's columns,
// indexed by GID, so Relation.Col(a)[Rows()[id]] is attribute a of tuple
// id. Appending may move it: read it afresh after an Append.
func (d *Dataset) Rows() []int32 { return d.loc.row }

// RelOf returns the relation index of the tuple with GID id.
func (d *Dataset) RelOf(id TID) int { return int(d.loc.rel[id]) }

// Size returns |D|, the number of tuples. GIDs are positions, so it is
// also the bound of the GIDs: everything indexed by GID (a union-find,
// host bitsets) is sized by it.
func (d *Dataset) Size() int { return len(d.tuples) }

// Relation returns the instance of the named relation, or nil.
func (d *Dataset) Relation(name string) *Relation {
	i := d.DB.SchemaIndex(name)
	if i < 0 {
		return nil
	}
	return d.Relations[i]
}

// SchemaOf returns the schema of the given tuple.
func (d *Dataset) SchemaOf(t *Tuple) *Schema { return d.DB.Schemas[t.Rel] }

// Tuples lists the tuples in GID order: the dataset's own list, which
// the caller must not modify.
func (d *Dataset) Tuples() []*Tuple { return d.tuples }

// MemBytes estimates the dataset's storage footprint: its packed columns,
// scan lists, tuple slabs and handle slices, row table and symbol table.
func (d *Dataset) MemBytes() int64 {
	var n int64
	for _, r := range d.Relations {
		n += int64(cap(r.tids)) * 4
		for _, c := range r.cols {
			n += int64(cap(c)) * 8
		}
		n += int64(cap(r.Tuples)) * 8
	}
	n += int64(len(d.tuples)) * (8 + 24) // handle pointer + slab entry
	n += int64(cap(d.loc.rel)+cap(d.loc.row)) * 4
	return n + d.syms.Bytes()
}
