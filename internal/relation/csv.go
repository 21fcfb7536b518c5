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
// parse writes its string cells as ids into its own dictionary (by first
// appearance, with strHashes); publish rewrites them to Syms.
type csvPiece struct {
	ri, row, rec, rows int // relation, first row, first record number (the header is 1), records
	b                  []byte
	dict               []string
	hashes             []uint32
	err                error
	done               chan struct{}
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

// load appends the pieces' records to d. The columns grow once; GOMAXPROCS
// goroutines parse the pieces into them while the caller publishes the
// parsed ones in order, so every string gets the Sym of its first
// appearance in (file, record, column) order: Syms, GIDs, rows and words
// are a record-at-a-time load's. On error, unpublished rows are dropped.
func (d *Dataset) load(pieces []*csvPiece) error {
	added := make([]int, len(d.Relations))
	for _, p := range pieces {
		p.row, p.rec, p.done = len(d.Relations[p.ri].Tuples)+added[p.ri], added[p.ri]+2, make(chan struct{})
		added[p.ri] += p.rows
	}
	for i, r := range d.Relations {
		d.Reserve(r.Schema.Name, added[i])
		for c := range r.cols {
			r.cols[c] = r.cols[c][:len(r.Tuples)+added[i]]
		}
	}
	var claimed atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(pieces)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(claimed.Add(1)) - 1; i < len(pieces); i = int(claimed.Add(1)) - 1 {
				pieces[i].parse(d.Relations[pieces[i].ri])
				close(pieces[i].done)
			}
		}()
	}
	var err error
	for _, p := range pieces {
		<-p.done
		if err = p.err; err != nil {
			break
		}
		d.publish(p)
	}
	wg.Wait()
	for _, r := range d.Relations {
		for c := range r.cols {
			r.cols[c] = r.cols[c][:len(r.Tuples)]
		}
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
			h := uint32(maphash.Bytes(symSeed, b))
			id := index.lookup(p.dict, str, h)
			if id < 0 {
				id = len(p.dict)
				p.dict, p.hashes = append(p.dict, str), append(p.hashes, h)
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

// publish interns a parsed piece's dictionary, rewrites its string cells
// to Syms and hands out its tuple handles.
func (d *Dataset) publish(p *csvPiece) {
	syms := make([]Sym, len(p.dict))
	d.syms.internHashed(p.dict, p.hashes, syms)
	r := d.Relations[p.ri]
	for c, a := range r.Schema.Attrs {
		if a.Type == TypeString {
			col := r.cols[c][p.row : p.row+p.rows]
			for j, w := range col {
				col[j] = uint64(syms[w])
			}
		}
	}
	for range p.rows {
		d.handOut(p.ri)
	}
	p.b, p.dict, p.hashes = nil, nil, nil
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
