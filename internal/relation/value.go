// Package relation provides the relational substrate for deep and
// collective entity resolution: typed values, relation schemas, tuples,
// datasets, inverted indexes and CSV input/output.
//
// A Dataset holds one Relation per schema, mirroring the paper's
// D = (D_1, ..., D_m) over R = (R_1, ..., R_m). Every tuple carries a
// designated id attribute so it can participate in id predicates.
package relation

import (
	"fmt"
	"math"
	"strconv"
)

// Type is the domain of an attribute.
type Type uint8

// Supported attribute types.
const (
	TypeString Type = iota
	TypeInt
	TypeFloat
)

// String returns the lowercase name of the type.
func (t Type) String() string {
	switch t {
	case TypeString:
		return "string"
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// ParseType converts a type name used in schema files to a Type.
func ParseType(s string) (Type, error) {
	switch s {
	case "string", "str", "text":
		return TypeString, nil
	case "int", "integer":
		return TypeInt, nil
	case "float", "double", "real":
		return TypeFloat, nil
	}
	return TypeString, fmt.Errorf("relation: unknown type %q", s)
}

// Value is a typed attribute value. The zero Value is the empty string.
//
// Values are compact tagged unions: strings live in Str, numerics in Num.
// Equality between two values of the same type is what the chase engine
// relies on for t.A = s.B predicates, so Equal is deliberately strict
// about types.
type Value struct {
	Kind Type
	Str  string
	Num  float64 // holds both ints (exact up to 2^53) and floats
}

// S makes a string value.
func S(s string) Value { return Value{Kind: TypeString, Str: s} }

// I makes an integer value.
func I(i int64) Value { return Value{Kind: TypeInt, Num: float64(i)} }

// F makes a float value.
func F(f float64) Value { return Value{Kind: TypeFloat, Num: f} }

// Int returns the value as an int64. Only meaningful for TypeInt.
func (v Value) Int() int64 { return int64(v.Num) }

// Float returns the value as a float64.
func (v Value) Float() float64 { return v.Num }

// IsZero reports whether v is the zero value of its type ("" or 0).
func (v Value) IsZero() bool {
	if v.Kind == TypeString {
		return v.Str == ""
	}
	return v.Num == 0
}

// Equal reports whether two values are equal. Values of different kinds
// are never equal.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	if v.Kind == TypeString {
		return v.Str == o.Str
	}
	return v.Num == o.Num
}

// Key returns a canonical string key for hashing/index purposes. The key
// embeds the kind so that I(1) and S("1") do not collide.
func (v Value) Key() string {
	switch v.Kind {
	case TypeString:
		return "s:" + v.Str
	case TypeInt:
		return "i:" + strconv.FormatInt(int64(v.Num), 10)
	default:
		return "f:" + strconv.FormatFloat(v.Num, 'g', -1, 64)
	}
}

// PackNum packs a numeric payload into a storage word. Negative zero is
// collapsed to positive zero and every NaN payload to one quiet NaN, so
// packed-word equality coincides with the canonical-key equality of the
// seed layout (-0 == +0, and all NaNs rendered alike). NaN words still
// never satisfy Value.Equal — the word is a candidate-pruning key, never
// the equality oracle, so callers that must respect NaN ≠ NaN re-verify
// with Equal.
func PackNum(f float64) uint64 {
	if f == 0 {
		f = 0
	}
	if f != f {
		return QNaNWord
	}
	return math.Float64bits(f)
}

// QNaNWord is the canonical quiet-NaN storage word PackNum collapses
// every NaN payload to. Word-equality fast paths over float columns must
// treat two QNaNWords as unequal to preserve NaN ≠ NaN (Value.Equal).
const QNaNWord = 0x7FF8000000000000

// unpackNum is the inverse of PackNum.
func unpackNum(w uint64) float64 { return math.Float64frombits(w) }

// PackValue packs v into a probe word without interning: an unknown
// string payload reports ok=false (it cannot equal any stored value).
// NaN probes also report false, preserving NaN ≠ NaN on probe paths.
func (st *SymTab) PackValue(v Value) (uint64, bool) {
	if v.Kind == TypeString {
		s, ok := st.Find(v.Str)
		return uint64(s), ok
	}
	if v.Num != v.Num {
		return 0, false
	}
	return PackNum(v.Num), true
}

// String renders the value the way it appears in CSV files.
func (v Value) String() string {
	switch v.Kind {
	case TypeString:
		return v.Str
	case TypeInt:
		return strconv.FormatInt(int64(v.Num), 10)
	default:
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	}
}

// ParseValue parses the CSV text s as a value of type t.
func ParseValue(s string, t Type) (Value, error) {
	if t == TypeString {
		return S(s), nil
	}
	f, err := parseNum(s, t)
	if err != nil {
		return Value{}, fmt.Errorf("relation: %w", err)
	}
	return Value{Kind: t, Num: f}, nil
}

// parseNum parses a numeric cell; an empty cell is 0. An int must fit the
// float64 payload exactly, or two distinct ids beyond ±2^53 share a word.
func parseNum(s string, t Type) (float64, error) {
	if s == "" {
		return 0, nil
	}
	if t != TypeInt {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("parse float %q: %w", s, err)
		}
		return f, nil
	}
	i, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parse int %q: %w", s, err)
	}
	if f := float64(i); f >= 1<<63 || int64(f) != i {
		return 0, fmt.Errorf("parse int %q: beyond ±2^53 and not exact as a float64", s)
	}
	return float64(i), nil
}
