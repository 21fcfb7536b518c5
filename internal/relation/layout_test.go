package relation

import (
	"reflect"
	"testing"
	"unsafe"
)

// hasPointers reports whether a value of type t holds a pointer the
// collector would have to scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface,
		reflect.String, reflect.Slice, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestStorageHoldsNoPointers guards the layout of the enumeration's
// storage and of the strings: an index's table and postings (every field
// of its postMap, slices of pointer-free elements or plain words), the
// row table, the scan lists, the symbol table's refs and index, and a CSV
// piece's dictionary are arrays the collector never scans.
func TestStorageHoldsNoPointers(t *testing.T) {
	pm, ok := reflect.TypeOf(Index{}).FieldByName("pm")
	if !ok {
		t.Fatal("Index has no field pm")
	}
	check := func(owner reflect.Type, names ...string) {
		t.Helper()
		for _, name := range names {
			f, ok := owner.FieldByName(name)
			if !ok {
				t.Fatalf("%s has no field %s", owner, name)
			}
			ft := f.Type
			if ft.Kind() == reflect.Slice {
				ft = ft.Elem()
			}
			if hasPointers(ft) {
				t.Errorf("%s.%s (%s) holds pointers", owner, name, f.Type)
			}
		}
	}
	var fields []string
	for i := range pm.Type.NumField() {
		fields = append(fields, pm.Type.Field(i).Name)
	}
	check(pm.Type, fields...)
	check(reflect.TypeOf(rowTable{}), "rel", "row")
	check(reflect.TypeOf(Relation{}), "tids")
	check(reflect.TypeOf(SymTab{}), "refs")
	check(reflect.TypeOf(strIndex{}), "slots")
	check(reflect.TypeOf(csvPiece{}), "dict", "hashes", "syms")
}

// TestTupleHandleSize pins the public tuple handle at 24 bytes: the two
// int32 fields share one word.
func TestTupleHandleSize(t *testing.T) {
	if n := unsafe.Sizeof(Tuple{}); n != 24 {
		t.Errorf("Tuple is %d bytes, want 24", n)
	}
}
