package relation_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"dcer/internal/relation"
)

func TestValueEqualAndKey(t *testing.T) {
	cases := []struct {
		a, b  relation.Value
		equal bool
	}{
		{relation.S("x"), relation.S("x"), true},
		{relation.S("x"), relation.S("y"), false},
		{relation.I(3), relation.I(3), true},
		{relation.I(3), relation.I(4), false},
		{relation.F(1.5), relation.F(1.5), true},
		{relation.S("1"), relation.I(1), false}, // different kinds never equal
		{relation.I(1), relation.F(1), false},
		{relation.S(""), relation.S(""), true},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.equal {
			t.Errorf("Equal(%v, %v) = %v, want %v", c.a, c.b, got, c.equal)
		}
		if c.equal && c.a.Key() != c.b.Key() {
			t.Errorf("equal values %v, %v have different keys", c.a, c.b)
		}
		if !c.equal && c.a.Key() == c.b.Key() {
			t.Errorf("unequal values %v, %v share key %q", c.a, c.b, c.a.Key())
		}
	}
}

func TestValueKeyInjectiveProperty(t *testing.T) {
	// Key must be injective w.r.t. Equal for string/int pairs.
	f := func(a, b string, x, y int64) bool {
		sa, sb := relation.S(a), relation.S(b)
		ia, ib := relation.I(x), relation.I(y)
		if sa.Equal(sb) != (sa.Key() == sb.Key()) {
			return false
		}
		if ia.Equal(ib) != (ia.Key() == ib.Key()) {
			return false
		}
		// Cross-kind collisions are forbidden.
		return sa.Key() != ia.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseValue(t *testing.T) {
	v, err := relation.ParseValue("42", relation.TypeInt)
	if err != nil || v.Int() != 42 {
		t.Errorf("ParseValue int: %v %v", v, err)
	}
	v, err = relation.ParseValue("2.5", relation.TypeFloat)
	if err != nil || v.Float() != 2.5 {
		t.Errorf("ParseValue float: %v %v", v, err)
	}
	if _, err := relation.ParseValue("abc", relation.TypeInt); err == nil {
		t.Error("ParseValue accepted a non-int")
	}
	v, err = relation.ParseValue("", relation.TypeInt)
	if err != nil || v.Int() != 0 {
		t.Errorf("empty int cell should parse to 0, got %v %v", v, err)
	}
	// 2^53+1 has no float64 payload: it would round to 2^53 and equal it.
	if v, err := relation.ParseValue("9007199254740993", relation.TypeInt); err == nil {
		t.Errorf("ParseValue accepted 2^53+1 as %v", v)
	}
	v, err = relation.ParseValue("9007199254740992", relation.TypeInt)
	if err != nil || v.Int() != 1<<53 {
		t.Errorf("ParseValue 2^53: %v %v", v, err)
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := relation.NewSchema("R", "id",
		relation.Attribute{Name: "id", Type: relation.TypeString},
		relation.Attribute{Name: "id", Type: relation.TypeString}); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := relation.NewSchema("R", "nope",
		relation.Attribute{Name: "id", Type: relation.TypeString}); err == nil {
		t.Error("missing id attribute accepted")
	}
	if _, err := relation.NewSchema("", "id",
		relation.Attribute{Name: "id", Type: relation.TypeString}); err == nil {
		t.Error("empty schema name accepted")
	}
	s := relation.MustSchema("R", "b",
		relation.Attribute{Name: "a", Type: relation.TypeString},
		relation.Attribute{Name: "b", Type: relation.TypeInt})
	if s.IDAttr != 1 {
		t.Errorf("IDAttr = %d, want 1", s.IDAttr)
	}
	if s.AttrIndex("a") != 0 || s.AttrIndex("zzz") != -1 {
		t.Error("AttrIndex wrong")
	}
	if ty, ok := s.AttrType("b"); !ok || ty != relation.TypeInt {
		t.Error("AttrType wrong")
	}
	if !strings.Contains(s.String(), "b:int!id") {
		t.Errorf("String() = %q lacks id marker", s)
	}
}

func TestDatabaseLookup(t *testing.T) {
	db := relation.MustDatabase(
		relation.MustSchema("A", "x", relation.Attribute{Name: "x", Type: relation.TypeString}),
		relation.MustSchema("B", "y", relation.Attribute{Name: "y", Type: relation.TypeString}),
	)
	if db.SchemaIndex("B") != 1 || db.SchemaIndex("C") != -1 {
		t.Error("SchemaIndex wrong")
	}
	if db.Schema("A") == nil || db.Schema("C") != nil {
		t.Error("Schema lookup wrong")
	}
	if _, err := relation.NewDatabase(db.Schemas[0], db.Schemas[0]); err == nil {
		t.Error("duplicate schema accepted")
	}
}

func testDataset(t *testing.T) *relation.Dataset {
	t.Helper()
	db := relation.MustDatabase(relation.MustSchema("R", "k",
		relation.Attribute{Name: "k", Type: relation.TypeString},
		relation.Attribute{Name: "v", Type: relation.TypeInt}))
	d := relation.NewDataset(db)
	for i := 0; i < 5; i++ {
		d.MustAppend("R", relation.S(string(rune('a'+i))), relation.I(int64(i%2)))
	}
	return d
}

func TestDatasetAppendErrors(t *testing.T) {
	d := testDataset(t)
	if _, err := d.Append("nope", relation.S("x")); err == nil {
		t.Error("unknown relation accepted")
	}
	if _, err := d.Append("R", relation.S("x")); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := d.Append("R", relation.S("x"), relation.S("notint")); err == nil {
		t.Error("wrong type accepted")
	}
	if d.Size() != 5 {
		t.Errorf("Size = %d after failed appends, want 5", d.Size())
	}
}

func TestIndexLookup(t *testing.T) {
	d := testDataset(t)
	ix := relation.BuildIndex(0, d.Relations[0], 1)
	if got := len(ix.Lookup(relation.I(0))); got != 3 {
		t.Errorf("Lookup(0) = %d tuples, want 3", got)
	}
	if got := len(ix.Lookup(relation.I(7))); got != 0 {
		t.Errorf("Lookup(7) = %d tuples, want 0", got)
	}
	if ix.Distinct() != 2 {
		t.Errorf("Distinct = %d, want 2", ix.Distinct())
	}
	if w, ok := ix.WordFor(relation.I(0)); !ok || len(ix.LookupWord(w)) != 3 {
		t.Errorf("LookupWord(word of 0) = %d tuples, want 3", len(ix.LookupWord(w)))
	}
	set := relation.NewIndexSet(d)
	a := set.For(0, 1)
	b := set.For(0, 1)
	if a != b {
		t.Error("IndexSet rebuilt an existing index")
	}
	if set.Built() != 1 {
		t.Errorf("Built = %d, want 1", set.Built())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := testDataset(t)
	var buf bytes.Buffer
	if err := relation.WriteCSV(&buf, d.Relations[0]); err != nil {
		t.Fatal(err)
	}
	// Reload via schema + rows.
	db2 := relation.MustDatabase(relation.MustSchema("R", "k",
		relation.Attribute{Name: "k", Type: relation.TypeString},
		relation.Attribute{Name: "v", Type: relation.TypeInt}))
	d2 := relation.NewDataset(db2)
	if err := relation.LoadCSVInto(d2, "R", bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if d2.Size() != d.Size() {
		t.Fatalf("round trip lost tuples: %d vs %d", d2.Size(), d.Size())
	}
	for i := range d.Tuples() {
		a, b := d.Tuples()[i], d2.Tuples()[i]
		for j := 0; j < a.Arity(); j++ {
			if !a.Val(j).Equal(b.Val(j)) {
				t.Errorf("tuple %d attr %d: %v vs %v", i, j, a.Val(j), b.Val(j))
			}
		}
	}
}

func TestSaveLoadDir(t *testing.T) {
	d := testDataset(t)
	dir := t.TempDir()
	if err := relation.SaveDir(d, dir); err != nil {
		t.Fatal(err)
	}
	d2, err := relation.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Size() != d.Size() {
		t.Errorf("LoadDir size %d, want %d", d2.Size(), d.Size())
	}
	if d2.DB.Schema("R") == nil {
		t.Fatal("schema lost")
	}
	if d2.DB.Schema("R").IDAttr != 0 {
		t.Error("id attribute lost in round trip")
	}
}

func TestLoadDirErrors(t *testing.T) {
	if _, err := relation.LoadDir(t.TempDir()); err == nil {
		t.Error("empty dir accepted")
	}
	for _, c := range []struct{ what, csv, want string }{
		{"ragged CSV", "a:string!id\n1,2\n", "relation: bad row 2: 2 columns, want 1"},
		{"two id columns", "a:string!id,b:string!id\nx,y\n", "two id columns"},
		{"bad float", "a:string!id,b:float\nx,1\ny,z\n", "relation: bad row 3: parse float"},
		{"int beyond 2^53", "a:int!id\n9007199254740993\n9007199254740992\n", "relation: bad row 2: parse int"},
		{"bare quote", "a:string!id\nx\ny\"\n", "relation: bad row 3: "},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "bad.csv"), []byte(c.csv), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := relation.LoadDir(dir)
		switch {
		case err == nil:
			t.Errorf("%s accepted", c.what)
		case !strings.Contains(err.Error(), c.want) || strings.Count(err.Error(), "relation:") != 1:
			t.Errorf("%s: error %q, want one %q", c.what, err, c.want)
		}
	}
}

func TestReadCSVSchemaDefaults(t *testing.T) {
	s, err := relation.ReadCSVSchema("R", []string{"a", "b:int"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Attrs[0].Type != relation.TypeString {
		t.Error("untyped header should default to string")
	}
	if s.IDAttr != 0 {
		t.Error("first attribute should be the default id")
	}
	if _, err := relation.ReadCSVSchema("R", []string{"a:bogus"}); err == nil {
		t.Error("bogus type accepted")
	}
}

// TestCSVRoundTripQuick round-trips random values (including commas,
// quotes, newlines and unicode) through the CSV writer/loader.
func TestCSVRoundTripQuick(t *testing.T) {
	f := func(a, b string, n int64, x float64) bool {
		db := relation.MustDatabase(relation.MustSchema("R", "k",
			relation.Attribute{Name: "k", Type: relation.TypeString},
			relation.Attribute{Name: "s", Type: relation.TypeString},
			relation.Attribute{Name: "n", Type: relation.TypeInt},
			relation.Attribute{Name: "x", Type: relation.TypeFloat}))
		d := relation.NewDataset(db)
		d.MustAppend("R", relation.S(a), relation.S(b), relation.I(n), relation.F(x))
		var buf bytes.Buffer
		if err := relation.WriteCSV(&buf, d.Relations[0]); err != nil {
			return false
		}
		d2 := relation.NewDataset(db)
		if err := relation.LoadCSVInto(d2, "R", bytes.NewReader(buf.Bytes())); err != nil {
			return false
		}
		if d2.Size() != 1 {
			return false
		}
		got := d2.Tuples()[0]
		want := d.Tuples()[0]
		for i := 0; i < want.Arity(); i++ {
			// CSV cannot distinguish "\r\n" from "\n" inside quoted
			// fields (the reader normalizes line endings); accept that.
			g, w := got.Val(i), want.Val(i)
			if g.Kind == relation.TypeString {
				gs := strings.ReplaceAll(g.Str, "\r\n", "\n")
				ws := strings.ReplaceAll(w.Str, "\r\n", "\n")
				if gs != ws {
					return false
				}
			} else if !g.Equal(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
