package relation_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcer/internal/datagen"
	"dcer/internal/relation"
)

// loadCSVReference is the record-at-a-time loader the chunk-parallel
// ingest replaced, kept as its oracle: encoding/csv reads every record,
// and each row is parsed and appended in turn, interning its strings as
// it goes.
func loadCSVReference(d *relation.Dataset, name string, r io.Reader) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	rows, err := cr.ReadAll()
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		return fmt.Errorf("%s: empty CSV", name)
	}
	s := d.DB.Schema(name)
	if len(rows[0]) != s.Arity() {
		return fmt.Errorf("%s: header has %d columns, schema %d", name, len(rows[0]), s.Arity())
	}
	ri := d.DB.SchemaIndex(name)
	vals := make([]relation.Value, s.Arity())
	for rn, row := range rows[1:] {
		if len(row) != s.Arity() {
			return fmt.Errorf("%s row %d: %d columns, want %d", name, rn+2, len(row), s.Arity())
		}
		for i, cell := range row {
			if vals[i], err = relation.ParseValue(cell, s.Attrs[i].Type); err != nil {
				return fmt.Errorf("%s row %d: %w", name, rn+2, err)
			}
		}
		d.AppendUnchecked(ri, vals...)
	}
	return nil
}

// loadDirReference is LoadDir over loadCSVReference.
func loadDirReference(dir string) (*relation.Dataset, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return nil, err
	}
	var schemas []*relation.Schema
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		header, err := csv.NewReader(fh).Read()
		fh.Close()
		if err != nil {
			return nil, err
		}
		s, err := relation.ReadCSVSchema(strings.TrimSuffix(filepath.Base(f), ".csv"), header)
		if err != nil {
			return nil, err
		}
		schemas = append(schemas, s)
	}
	db, err := relation.NewDatabase(schemas...)
	if err != nil {
		return nil, err
	}
	d := relation.NewDataset(db)
	for i, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		err = loadCSVReference(d, schemas[i].Name, fh)
		fh.Close()
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

// loadDigest is a sha256 over everything a load decides: the schemas, the
// symbol strings in Sym order, and every tuple's GID, relation, row and
// packed words, lengths before contents.
func loadDigest(d *relation.Dataset) string {
	h := sha256.New()
	num := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, s := range d.DB.Schemas {
		str := s.String()
		num(uint64(len(str)))
		h.Write([]byte(str))
	}
	syms := d.Syms().Since(0)
	num(uint64(len(syms)))
	for _, s := range syms {
		num(uint64(len(s)))
		h.Write([]byte(s))
	}
	num(uint64(d.Size()))
	for _, t := range d.Tuples() {
		num(uint64(t.GID))
		num(uint64(t.Rel))
		num(uint64(t.Row))
		num(uint64(t.Arity()))
		for i := 0; i < t.Arity(); i++ {
			num(t.Word(i))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sameLoad reports the first difference between two loads, word for word.
func sameLoad(got, want *relation.Dataset) error {
	gs, ws := got.Syms().Since(0), want.Syms().Since(0)
	if len(gs) != len(ws) {
		return fmt.Errorf("%d symbols, want %d", len(gs), len(ws))
	}
	for i := range ws {
		if gs[i] != ws[i] {
			return fmt.Errorf("Sym %d = %q, want %q", i, gs[i], ws[i])
		}
	}
	if got.Size() != want.Size() {
		return fmt.Errorf("%d tuples, want %d", got.Size(), want.Size())
	}
	for i, w := range want.Tuples() {
		g := got.Tuples()[i]
		if g.GID != w.GID || g.Rel != w.Rel || g.Row != w.Row || g.Arity() != w.Arity() {
			return fmt.Errorf("tuple %d = (%d, %d, %d), want (%d, %d, %d)", i, g.GID, g.Rel, g.Row, w.GID, w.Rel, w.Row)
		}
		for a := 0; a < w.Arity(); a++ {
			if g.Word(a) != w.Word(a) {
				return fmt.Errorf("tuple %d word %d = %#x, want %#x", i, a, g.Word(a), w.Word(a))
			}
		}
	}
	return nil
}

// goldenLoads were recorded by loading these directories with the
// encoding/csv loader and its map-backed symbol table, before the
// chunk-parallel ingest replaced them.
var goldenLoads = map[string]string{
	"tpch0.5":  "84906904dfc7fc91afb06d68a62491cadb88fb52c8e5dabddd5d090655141f27",
	"tfacc0.2": "97e3244f93b46e0dfb8d1288c701696c698a871c2b887e1c31f17d466636d589",
}

// goldenLoadDirs writes the generated datasets goldenLoads names as CSV
// directories.
func goldenLoadDirs(t *testing.T) map[string]string {
	t.Helper()
	dirs := make(map[string]string)
	for name, g := range map[string]*datagen.Generated{
		"tpch0.5":  datagen.TPCH(datagen.TPCHOptions{Scale: 0.5, Dup: 0.3, Seed: 1}),
		"tfacc0.2": datagen.TFACC(datagen.TFACCOptions{Scale: 0.2, Dup: 0.3, Seed: 1}),
	} {
		dirs[name] = t.TempDir()
		if err := relation.SaveDir(g.D, dirs[name]); err != nil {
			t.Fatal(err)
		}
	}
	return dirs
}

// pieceSizes are the cut sizes the load tests run at: the default, and
// sizes small enough that every file spans hundreds of pieces.
var pieceSizes = []int{0, 4 << 10, 100}

// loadDirAt is LoadDir with bodies cut past size bytes (0: the default).
func loadDirAt(t *testing.T, dir string, size int) *relation.Dataset {
	t.Helper()
	if size > 0 {
		defer relation.SetPieceBytes(size)()
	}
	d, err := relation.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestLoadDirGoldenDigest pins LoadDir byte for byte to the loader it
// replaced, at every piece size; scripts/ci.sh runs it at GOMAXPROCS 1, 2
// and 4, so neither the cut nor the parse width moves a Sym.
func TestLoadDirGoldenDigest(t *testing.T) {
	for name, dir := range goldenLoadDirs(t) {
		for _, size := range pieceSizes {
			if got := loadDigest(loadDirAt(t, dir, size)); got != goldenLoads[name] {
				t.Errorf("%s, pieces of %d bytes: load digest %s, want %s", name, size, got, goldenLoads[name])
			}
		}
	}
}

// loadTestDirs are the golden directories and one of awkward CSV: quoted
// commas, quotes and newlines, CRLF line ends, empty lines, a missing
// final newline.
func loadTestDirs(t *testing.T) map[string]string {
	t.Helper()
	dirs := goldenLoadDirs(t)
	dirs["awkward"] = t.TempDir()
	for name, text := range map[string]string{
		"a": "k:string!id,s:string,n:int,x:float\r\n\"a,1\",\"say \"\"hi\"\"\",1,2.5\r\n\r\nb,\"two\nlines\",-3,\n" +
			"\"a,1\",b,,1e3\n\n",
		"b": "v:string,w:string!id\nb,a\n\"two\nlines\",\"\"\nlast,\"x\r\ny\"",
	} {
		if err := os.WriteFile(filepath.Join(dirs["awkward"], name+".csv"), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dirs
}

// TestLoadDirEqualsReference compares LoadDir with the encoding/csv
// oracle word for word, on every loadTestDirs directory.
func TestLoadDirEqualsReference(t *testing.T) {
	for name, dir := range loadTestDirs(t) {
		want, err := loadDirReference(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range pieceSizes {
			if err := sameLoad(loadDirAt(t, dir, size), want); err != nil {
				t.Errorf("%s, pieces of %d bytes: %v", name, size, err)
			}
		}
	}
}

// halves splits every CSV file of dir into two bodies with its header,
// the first half of its records and the rest, as loadDirReference finds
// the files.
func halves(t *testing.T, dir string) (names []string, first, second [][]byte) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(fh).ReadAll()
		fh.Close()
		if err != nil {
			t.Fatal(err)
		}
		half := 1 + (len(rows)-1)/2
		for i, part := range [][][]string{rows[1:half], rows[half:]} {
			var b bytes.Buffer
			w := csv.NewWriter(&b)
			w.Write(rows[0])
			w.WriteAll(part)
			if i == 0 {
				first = append(first, b.Bytes())
			} else {
				second = append(second, b.Bytes())
			}
		}
		names = append(names, strings.TrimSuffix(filepath.Base(f), ".csv"))
	}
	return names, first, second
}

// TestLoadCSVIntoNonEmpty loads the second half of every file of every
// loadTestDirs directory with LoadCSVInto into a dataset already holding
// the first halves of all of them, at every piece size: every Sym, GID,
// row and word must be the encoding/csv oracle's, which appends each
// record in turn. Known and new strings, and rows and GIDs that do not
// start at 0, meet in every file.
func TestLoadCSVIntoNonEmpty(t *testing.T) {
	for name, dir := range loadTestDirs(t) {
		names, first, second := halves(t, dir)
		whole, err := loadDirReference(dir)
		if err != nil {
			t.Fatal(err)
		}
		prefix := func(loader func(*relation.Dataset, string, io.Reader) error) *relation.Dataset {
			d := relation.NewDataset(whole.DB)
			for i, body := range first {
				if err := loadCSVReference(d, names[i], bytes.NewReader(body)); err != nil {
					t.Fatal(err)
				}
			}
			for i, body := range second {
				if err := loader(d, names[i], bytes.NewReader(body)); err != nil {
					t.Fatalf("%s, %s: %v", name, names[i], err)
				}
			}
			return d
		}
		want := prefix(loadCSVReference)
		for _, size := range pieceSizes {
			restore := func() {}
			if size > 0 {
				restore = relation.SetPieceBytes(size)
			}
			got := prefix(relation.LoadCSVInto)
			restore()
			if err := sameLoad(got, want); err != nil {
				t.Errorf("%s, pieces of %d bytes: %v", name, size, err)
			}
		}
	}
}

// FuzzLoadCSV feeds arbitrary bodies under a fixed typed header to
// LoadCSVInto, cut into pieces of a few bytes, and to the encoding/csv
// oracle, each into a dataset that already holds a row: both must load
// the same dataset, or both must fail, and neither may panic.
func FuzzLoadCSV(f *testing.F) {
	for _, body := range []string{
		"a,b,1,2.5\n",
		"\"a,1\",\"say \"\"hi\"\"\",2,3\n",
		"\"multi\nline\",\"crlf\r\nin quotes\",3,4\r\nz,z,,\r\n",
		"a,b,1,1\n\n\r\n\nc,d,2,2\n",
		"a,b\"c,1,1\n",
		"\"a\"x,b,1,1\n",
		"a,b,1,1\nc,d,2,2",
		"a,b,1,1\r",
		"x,\"spans\nthe\ncut\nof\nseveral\npieces\",5,6\ny,z,7,8\n",
		"a,b,9007199254740993,1\n",
		"a,b,1\n",
		"a,b,1,1\n\"unterminated,b,1,1\n",
		"a,a,a,a\n",
	} {
		f.Add([]byte(body))
	}
	db := relation.MustDatabase(relation.MustSchema("R", "k",
		relation.Attribute{Name: "k", Type: relation.TypeString},
		relation.Attribute{Name: "s", Type: relation.TypeString},
		relation.Attribute{Name: "n", Type: relation.TypeInt},
		relation.Attribute{Name: "x", Type: relation.TypeFloat}))
	load := func(loader func(*relation.Dataset, string, io.Reader) error, body []byte) (*relation.Dataset, error) {
		d := relation.NewDataset(db)
		d.MustAppend("R", relation.S("b"), relation.S("seed"), relation.I(1), relation.F(1))
		text := append([]byte("k:string!id,s:string,n:int,x:float\n"), body...)
		return d, loader(d, "R", bytes.NewReader(text))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		defer relation.SetPieceBytes(1 + len(body)%16)()
		got, gotErr := load(relation.LoadCSVInto, body)
		want, wantErr := load(loadCSVReference, body)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("body %q: LoadCSVInto error %v, oracle error %v", body, gotErr, wantErr)
		}
		if gotErr == nil {
			if err := sameLoad(got, want); err != nil {
				t.Fatalf("body %q: %v", body, err)
			}
		}
	})
}
