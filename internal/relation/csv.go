package relation

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// WriteCSV writes one relation as CSV with a typed header row of the form
// name:type (e.g. "cno:string,price:float"). The id attribute is marked
// with a trailing "!id". The rows are the relation's scan list.
func WriteCSV(w io.Writer, rel *Relation) error {
	cw := csv.NewWriter(w)
	header := make([]string, rel.Schema.Arity())
	for i, a := range rel.Schema.Attrs {
		h := a.Name + ":" + a.Type.String()
		if i == rel.Schema.IDAttr {
			h += "!id"
		}
		header[i] = h
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, rel.Schema.Arity())
	for _, id := range rel.tids {
		for i := range row {
			row[i] = rel.Val(id, i).String()
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSVSchema parses the typed header row into a schema named name.
func ReadCSVSchema(name string, header []string) (*Schema, error) {
	attrs := make([]Attribute, len(header))
	idAttr := ""
	for i, h := range header {
		isID := strings.HasSuffix(h, "!id")
		h = strings.TrimSuffix(h, "!id")
		nm, ty, ok := strings.Cut(h, ":")
		if !ok {
			nm, ty = h, "string"
		}
		t, err := ParseType(ty)
		if err != nil {
			return nil, fmt.Errorf("relation: %s header %q: %w", name, header[i], err)
		}
		attrs[i] = Attribute{Name: nm, Type: t}
		if isID && idAttr != "" {
			return nil, fmt.Errorf("relation: %s header: two id columns, %q and %q", name, idAttr, nm)
		} else if isID {
			idAttr = nm
		}
	}
	if idAttr == "" {
		idAttr = attrs[0].Name
	}
	return NewSchema(name, idAttr, attrs...)
}

// LoadCSVInto reads CSV rows (with typed header) into an existing dataset's
// relation named name. The header must match the relation's schema arity.
func LoadCSVInto(d *Dataset, name string, r io.Reader) error {
	buf, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	ri := d.DB.SchemaIndex(name)
	if ri < 0 {
		return fmt.Errorf("relation: no relation %q in dataset", name)
	}
	header, body, err := splitHeader(name, buf)
	if err != nil {
		return err
	}
	if a := d.DB.Schemas[ri].Arity(); len(header) != a {
		return fmt.Errorf("relation: %s: header has %d columns, schema %d", name, len(header), a)
	}
	return d.load(cut(ri, body))
}

// LoadDir loads every *.csv file in dir as one relation (named after the
// file basename) and assembles them into a dataset. Each file must carry a
// typed header row.
func LoadDir(dir string) (*Dataset, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("relation: no *.csv files in %s", dir)
	}
	schemas := make([]*Schema, len(paths))
	var pieces []*csvPiece
	for i, p := range paths {
		buf, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		name := strings.TrimSuffix(filepath.Base(p), ".csv")
		header, body, err := splitHeader(name, buf)
		if err == nil {
			schemas[i], err = ReadCSVSchema(name, header)
		}
		if err != nil {
			return nil, err
		}
		pieces = append(pieces, cut(i, body)...)
	}
	db, err := NewDatabase(schemas...)
	if err != nil {
		return nil, err
	}
	d := NewDataset(db)
	if err := d.load(pieces); err != nil {
		return nil, err
	}
	return d, nil
}

// SaveDir writes each relation of d as dir/<name>.csv.
func SaveDir(d *Dataset, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, rel := range d.Relations {
		f, err := os.Create(filepath.Join(dir, rel.Schema.Name+".csv"))
		if err != nil {
			return err
		}
		err = WriteCSV(f, rel)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// pieceBytes is the size past which the ingest cuts a CSV body at the next
// record boundary, so that no one piece dominates the parse.
var pieceBytes = 256 << 10

// splitHeader splits the header record off buf, less the '\r' at its EOF.
func splitHeader(name string, buf []byte) ([]string, []byte, error) {
	buf, _ = bytes.CutSuffix(buf, []byte{'\r'})
	sc := csvScanner{b: buf}
	fields, ok, err := sc.record(nil)
	if err == nil && !ok {
		err = errors.New("empty CSV")
	}
	if err != nil {
		return nil, nil, fmt.Errorf("relation: %s header: %w", name, err)
	}
	header := make([]string, len(fields))
	for i, f := range fields {
		header[i] = string(f)
	}
	return header, buf[sc.pos:], nil
}

// csvPiece is a record-aligned range b of a CSV body for relation ri.
// parse writes its string cells as ids into its own dictionary: each
// string once, by first appearance, as a ref (offset<<32 | length) into b
// with its strHash. The publisher interns the dictionary into syms; fill
// then rewrites the cells to Syms and hands out the piece's tuples.
type csvPiece struct {
	ri, row, rec, rows int // relation, first row, first record number (the header is 1), records
	gid                int // first GID
	b                  []byte
	dict               []uint64
	hashes             []uint32
	syms               []Sym
	err                error
	done               chan struct{}
}

// pieceStr is the string at a piece dictionary's ref into b.
func pieceStr(b []byte, ref uint64) string {
	off, n := ref>>32, ref&(1<<32-1)
	return unsafe.String(unsafe.SliceData(b[off:off+n]), int(n))
}

// cut splits body at the first newline outside quotes past every
// pieceBytes, counting each piece's non-empty records as the scanner will
// find them. A malformed body may be cut wrongly, but only after its first
// quoting error, which the scanner reports first.
func cut(ri int, body []byte) []*csvPiece {
	var out []*csvPiece
	lo, line, rows, quoted := 0, 0, 0, false
	for i := 0; i < len(body); {
		end := i + bytes.IndexByte(body[i:], '\n')
		if end < i {
			break
		}
		quoted = quoted != (bytes.Count(body[i:end], []byte{'"'})%2 == 1)
		if i = end + 1; quoted {
			continue
		}
		if end-line > 1 || end-line == 1 && body[line] != '\r' {
			rows++
		}
		if line = i; i-lo >= pieceBytes {
			out = append(out, &csvPiece{ri: ri, b: body[lo:i], rows: rows})
			lo, rows = i, 0
		}
	}
	if lo < len(body) { // the rest, and in it a last record without a newline
		out = append(out, &csvPiece{ri: ri, b: body[lo:], rows: rows + min(len(body)-line, 1)})
	}
	return out
}

// load appends the pieces' records to d, every string with the Sym of its
// first appearance in (file, record, column) order: Syms, GIDs, rows and
// words are a record-at-a-time load's. Every list first grows to its final
// length. GOMAXPROCS goroutines parse the pieces into the columns while
// the caller interns the parsed ones' dictionaries in order, the one
// serial step, and hands each interned piece on to GOMAXPROCS more that
// fill its rows. On error, the rows from the failing piece on are dropped.
func (d *Dataset) load(pieces []*csvPiece) error {
	base, gid := d.Size(), d.Size()
	rows, added := make([]int, len(d.Relations)), make([]int, len(d.Relations))
	for i, r := range d.Relations {
		rows[i] = len(r.Tuples)
	}
	for _, p := range pieces {
		p.row, p.rec, p.gid, p.done = rows[p.ri]+added[p.ri], added[p.ri]+2, gid, make(chan struct{})
		added[p.ri] += p.rows
		gid += p.rows
	}
	d.resize(base, rows, added)
	slab := make([]Tuple, gid-base)
	var claimed atomic.Int64
	var parses, fills sync.WaitGroup
	interned := make(chan *csvPiece, len(pieces)) // one send per piece: the caller never waits on a fill
	for range min(runtime.GOMAXPROCS(0), len(pieces)) {
		parses.Add(1)
		go func() {
			defer parses.Done()
			for i := int(claimed.Add(1)) - 1; i < len(pieces); i = int(claimed.Add(1)) - 1 {
				pieces[i].parse(d.Relations[pieces[i].ri])
				close(pieces[i].done)
			}
		}()
		fills.Add(1)
		go func() {
			defer fills.Done()
			for p := range interned {
				d.fill(p, slab[p.gid-base:][:p.rows])
			}
		}()
	}
	var err error
	for i, p := range pieces {
		<-p.done
		if err = p.err; err != nil {
			clear(added)
			for _, q := range pieces[:i] {
				added[q.ri] += q.rows
			}
			break
		}
		p.syms = make([]Sym, len(p.dict))
		d.syms.internPiece(p.b, p.dict, p.hashes, p.syms)
		interned <- p
	}
	close(interned)
	parses.Wait()
	fills.Wait()
	if err != nil {
		d.resize(base, rows, added)
	}
	return err
}

// parse scans the piece into its rows of r's columns. It runs on a worker
// and writes nothing else but the piece's bytes and dictionary.
func (p *csvPiece) parse(r *Relation) {
	s, sc := r.Schema, csvScanner{b: p.b}
	var fields [][]byte
	var index strIndex
	for j := 0; ; j++ {
		var ok bool
		var err error
		fields, ok, err = sc.record(fields)
		switch {
		case err != nil:
		case ok != (j < p.rows):
			err = errors.New("malformed quoting") // only after a quoting error in an earlier piece
		case !ok:
			return
		case len(fields) != s.Arity():
			err = fmt.Errorf("%d columns, want %d", len(fields), s.Arity())
		}
		for c := 0; err == nil && c < len(fields); c++ {
			b := fields[c]
			str := unsafe.String(unsafe.SliceData(b), len(b))
			if t := s.Attrs[c].Type; t != TypeString {
				var x float64
				x, err = parseNum(str, t)
				r.cols[c][p.row+j] = PackNum(x)
				continue
			}
			if len(b) > maxSymLen {
				err = fmt.Errorf("a %d-byte string, past the %d bytes a symbol holds", len(b), maxSymLen)
				continue
			}
			h := uint32(maphash.Bytes(symSeed, b))
			id := index.lookup(h, func(id int) bool { return pieceStr(p.b, p.dict[id]) == str })
			if id < 0 {
				id = len(p.dict)
				// A field is a view of p.b, so their capacities differ by
				// its offset.
				ref := uint64(cap(p.b)-cap(b))<<32 | uint64(len(b))
				p.dict, p.hashes = append(p.dict, ref), append(p.hashes, h)
				index.insert(h, id)
			}
			r.cols[c][p.row+j] = uint64(id)
		}
		if err != nil {
			p.err = fmt.Errorf("relation: %s row %d: %w", s.Name, p.rec+j, err)
			return
		}
	}
}

// fill rewrites an interned piece's string cells to Syms and hands out its
// tuples from slab, one per row, into the rows and GIDs load sized every
// list for.
func (d *Dataset) fill(p *csvPiece, slab []Tuple) {
	r := d.Relations[p.ri]
	for c, a := range r.Schema.Attrs {
		if a.Type == TypeString {
			col := r.cols[c][p.row : p.row+p.rows]
			for j, w := range col {
				col[j] = uint64(p.syms[w])
			}
		}
	}
	for j := range slab {
		gid, row := TID(p.gid+j), int32(p.row+j)
		t := &slab[j]
		*t = Tuple{GID: gid, Row: row, Rel: p.ri, rel: r}
		d.tuples[gid], r.Tuples[row], r.tids[row] = t, t, gid
		d.loc.rel[gid], d.loc.row[gid] = int32(p.ri), row
	}
	p.b, p.dict, p.hashes, p.syms = nil, nil, nil, nil
}

// csvScanner reads records as encoding/csv does by default (quoted fields
// with "" escapes, "\r\n" read as "\n", empty lines skipped, no lazy
// quotes). Fields are views of b, quoted ones unescaped in place, so
// scanning allocates nothing per field.
type csvScanner struct {
	b   []byte
	pos int
}

func crlf(b []byte, i int) bool { return i+1 < len(b) && b[i] == '\r' && b[i+1] == '\n' }

// record returns the fields of the next non-empty record in fields[:0];
// ok is false at the end of b.
func (sc *csvScanner) record(fields [][]byte) (_ [][]byte, ok bool, err error) {
	b, i := sc.b, sc.pos
	for i < len(b) && (b[i] == '\n' || crlf(b, i)) {
		i++
	}
	if sc.pos, fields = i, fields[:0]; i == len(b) {
		return fields, false, nil
	}
	for ; ; i++ { // i++ steps over a ','
		if start := i; i < len(b) && b[i] == '"' {
			start, end := i+1, i+1
			for i++; i == len(b) || b[i] != '"' || i+1 < len(b) && b[i+1] == '"'; i++ {
				if i == len(b) {
					return fields, false, csv.ErrQuote
				}
				if b[i] == '"' || crlf(b, i) {
					i++ // keep one quote of "", the '\n' of "\r\n"
				}
				b[end] = b[i]
				end++
			}
			fields = append(fields, b[start:end])
			if i++; i < len(b) && b[i] != ',' && b[i] != '\n' && !crlf(b, i) {
				return fields, false, csv.ErrQuote
			}
		} else {
			for ; i < len(b) && b[i] != ',' && b[i] != '\n' && !crlf(b, i); i++ {
				if b[i] == '"' {
					return fields, false, csv.ErrBareQuote
				}
			}
			fields = append(fields, b[start:i])
		}
		if i == len(b) || b[i] != ',' {
			if crlf(b, i) {
				i++
			}
			sc.pos = min(i+1, len(b))
			return fields, true, nil
		}
	}
}
