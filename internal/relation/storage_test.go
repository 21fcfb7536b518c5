package relation_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"dcer/internal/relation"
)

// TestValueEqualNumericEdges pins the numeric edge semantics the packed
// storage layer must preserve: exactness up to ±2^53, strict kind
// separation, NaN inequality, and the zero Value being the empty string.
func TestValueEqualNumericEdges(t *testing.T) {
	const big = int64(1) << 53
	cases := []struct {
		name  string
		a, b  relation.Value
		equal bool
	}{
		{"int 2^53 exact", relation.I(big), relation.I(big), true},
		{"int -2^53 exact", relation.I(-big), relation.I(-big), true},
		{"int 2^53 vs 2^53-1", relation.I(big), relation.I(big - 1), false},
		{"int vs float same magnitude", relation.I(7), relation.F(7), false},
		{"float vs int same magnitude", relation.F(big_f()), relation.I(big), false},
		{"string digit vs int", relation.S("7"), relation.I(7), false},
		{"float -0 equals +0", relation.F(math.Copysign(0, -1)), relation.F(0), true},
		{"NaN never equals NaN", relation.F(math.NaN()), relation.F(math.NaN()), false},
		{"zero Value is empty string", relation.Value{}, relation.S(""), true},
		{"zero Value is not int 0", relation.Value{}, relation.I(0), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.equal {
			t.Errorf("%s: Equal(%v, %v) = %v, want %v", c.name, c.a, c.b, got, c.equal)
		}
	}
	if !(relation.Value{}).IsZero() {
		t.Error("zero Value should be IsZero")
	}
}

func big_f() float64 { return float64(int64(1) << 53) }

// TestPackNumCanonicalization pins the word-packing normalizations: -0
// packs like +0 (matching Value.Equal and the old map[Value] index
// behavior) and every NaN payload packs to one canonical word.
func TestPackNumCanonicalization(t *testing.T) {
	if relation.PackNum(math.Copysign(0, -1)) != relation.PackNum(0) {
		t.Error("PackNum(-0) != PackNum(+0)")
	}
	weirdNaN := math.Float64frombits(0x7FF0000000000001)
	if !math.IsNaN(weirdNaN) {
		t.Fatal("test payload is not a NaN")
	}
	if relation.PackNum(weirdNaN) != relation.PackNum(math.NaN()) {
		t.Error("distinct NaN payloads should pack to one canonical word")
	}
	for _, f := range []float64{1, -1, 2.5, big_f(), -big_f()} {
		if relation.PackNum(f) != math.Float64bits(f) {
			t.Errorf("PackNum(%g) should be the plain bit pattern", f)
		}
	}
}

// TestSymTabConcurrentIntern hammers one symbol table from several
// goroutines over overlapping string sets (run under -race). Afterwards
// every symbol must round-trip through Str and Find, and the table must
// hold exactly the distinct strings.
func TestSymTabConcurrentIntern(t *testing.T) {
	st := relation.NewSymTab()
	const workers = 8
	const perWorker = 2000
	const distinct = 500
	var wg sync.WaitGroup
	syms := make([][]relation.Sym, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			out := make([]relation.Sym, 0, perWorker)
			for i := 0; i < perWorker; i++ {
				s := fmt.Sprintf("sym-%d", rng.Intn(distinct))
				out = append(out, st.Intern(s))
			}
			syms[w] = out
		}(w)
	}
	wg.Wait()
	if st.Len() != distinct {
		t.Fatalf("Len = %d, want %d distinct symbols", st.Len(), distinct)
	}
	// Interning is idempotent across goroutines: every occurrence of a
	// string must have received the same Sym.
	canon := make(map[string]relation.Sym)
	for w := range syms {
		rng := rand.New(rand.NewSource(int64(w)))
		for i, sym := range syms[w] {
			s := fmt.Sprintf("sym-%d", rng.Intn(distinct))
			if prev, ok := canon[s]; ok && prev != sym {
				t.Fatalf("worker %d occurrence %d: %q interned as %d and %d", w, i, s, prev, sym)
			}
			canon[s] = sym
			if got := st.Str(sym); got != s {
				t.Fatalf("Str(%d) = %q, want %q", sym, got, s)
			}
			if found, ok := st.Find(s); !ok || found != sym {
				t.Fatalf("Find(%q) = %d,%v, want %d,true", s, found, ok, sym)
			}
		}
	}
}

// TestStorageParity is the boxed-vs-packed parity property test: on a
// randomized dataset, the compat Value API (Val, Values, Index.Lookup)
// must agree exactly with the packed-word API (Word, Index.LookupWord) and
// with the by-GID reads through the row table (Relation.Word,
// Relation.Val) the hot paths use.
func TestStorageParity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db := relation.MustDatabase(
		relation.MustSchema("R", "id",
			relation.Attribute{Name: "id", Type: relation.TypeString},
			relation.Attribute{Name: "cat", Type: relation.TypeString},
			relation.Attribute{Name: "n", Type: relation.TypeInt},
			relation.Attribute{Name: "x", Type: relation.TypeFloat},
		),
	)
	d := relation.NewDataset(db)
	const rows = 500
	want := make([][]relation.Value, rows)
	for i := 0; i < rows; i++ {
		vals := []relation.Value{
			relation.S(fmt.Sprintf("id%d", i)),
			relation.S(fmt.Sprintf("cat%d", rng.Intn(20))),
			relation.I(int64(rng.Intn(50) - 25)),
			relation.F(float64(rng.Intn(40)) / 4),
		}
		d.MustAppend("R", vals...)
		want[i] = vals
	}
	rel := d.Relations[0]
	// Per-tuple: Val and Values must reproduce the appended values, and
	// Word must pack consistently with the symbol table.
	for i, tt := range rel.Tuples {
		if got := tt.Values(); len(got) != len(want[i]) {
			t.Fatalf("tuple %d: arity %d, want %d", i, len(got), len(want[i]))
		}
		for a := range want[i] {
			if !tt.Val(a).Equal(want[i][a]) {
				t.Fatalf("tuple %d attr %d: Val = %v, want %v", i, a, tt.Val(a), want[i][a])
			}
			if !tt.Values()[a].Equal(want[i][a]) {
				t.Fatalf("tuple %d attr %d: Values = %v, want %v", i, a, tt.Values()[a], want[i][a])
			}
			w, ok := d.Syms().PackValue(want[i][a])
			if !ok || w != tt.Word(a) {
				t.Fatalf("tuple %d attr %d: PackValue = %d,%v, Word = %d", i, a, w, ok, tt.Word(a))
			}
			if rel.Word(tt.GID, a) != tt.Word(a) || !rel.Val(tt.GID, a).Equal(want[i][a]) {
				t.Fatalf("tuple %d attr %d: by-GID Word %d / Val %v, tuple Word %d / Val %v",
					i, a, rel.Word(tt.GID, a), rel.Val(tt.GID, a), tt.Word(a), want[i][a])
			}
		}
	}
	// Per-index: boxed Lookup and packed LookupWord (fed by the tuple and
	// by GID) must return the same posting lists, and both must equal a
	// brute-force Equal scan.
	for attr := 0; attr < 4; attr++ {
		ix := relation.BuildIndex(0, rel, attr)
		for i, tt := range rel.Tuples {
			v := want[i][attr]
			byValue := ix.Lookup(v)
			byWord := ix.LookupWord(tt.Word(attr))
			byGID := ix.LookupWord(rel.Word(tt.GID, attr))
			if len(byValue) != len(byWord) || len(byValue) != len(byGID) {
				t.Fatalf("attr %d value %v: Lookup %d, LookupWord %d, LookupWord by GID %d entries",
					attr, v, len(byValue), len(byWord), len(byGID))
			}
			for j := range byValue {
				if byValue[j] != byWord[j] || byValue[j] != byGID[j] {
					t.Fatalf("attr %d value %v: posting %d disagrees across probe APIs", attr, v, j)
				}
			}
			n := 0
			for _, u := range rel.Tuples {
				if u.Val(attr).Equal(v) {
					n++
				}
			}
			if n != len(byValue) {
				t.Fatalf("attr %d value %v: index has %d postings, scan found %d", attr, v, len(byValue), n)
			}
		}
	}
	// Miss semantics: unknown strings, NaN, and wrong kinds probe empty.
	ix := relation.BuildIndex(0, rel, 1)
	if got := ix.Lookup(relation.S("never-interned")); got != nil {
		t.Errorf("unknown string should miss, got %d entries", len(got))
	}
	if got := ix.Lookup(relation.I(3)); got != nil {
		t.Errorf("kind mismatch should miss, got %d entries", len(got))
	}
	fx := relation.BuildIndex(0, rel, 3)
	if got := fx.Lookup(relation.F(math.NaN())); got != nil {
		t.Errorf("NaN probe should miss, got %d entries", len(got))
	}
}

// TestAppendKindMismatch pins the Append validation contract: int/float
// mismatches get the coercion hint, other mismatches a plain error, and
// AppendUnchecked skips validation entirely.
func TestAppendKindMismatch(t *testing.T) {
	db := relation.MustDatabase(
		relation.MustSchema("R", "id",
			relation.Attribute{Name: "id", Type: relation.TypeString},
			relation.Attribute{Name: "x", Type: relation.TypeFloat},
			relation.Attribute{Name: "n", Type: relation.TypeInt},
		),
	)
	d := relation.NewDataset(db)
	if _, err := d.Append("R", relation.S("a"), relation.I(1), relation.I(2)); err == nil {
		t.Error("int into float attribute should error")
	} else if want := "I(…)/F(…)"; !containsAny(err.Error(), "F(…)") {
		t.Errorf("int/float mismatch error should suggest the constructor, got %q (want mention of %s)", err, want)
	}
	if _, err := d.Append("R", relation.S("a"), relation.F(1), relation.F(2)); err == nil {
		t.Error("float into int attribute should error")
	}
	if _, err := d.Append("R", relation.I(9), relation.F(1), relation.I(2)); err == nil {
		t.Error("int into string attribute should error")
	}
	if _, err := d.Append("R", relation.S("a"), relation.F(1)); err == nil {
		t.Error("arity mismatch should error")
	}
	if _, err := d.Append("R", relation.S("a"), relation.F(1.5), relation.I(2)); err != nil {
		t.Errorf("well-typed append should succeed: %v", err)
	}
	tt := d.AppendUnchecked(0, relation.S("b"), relation.F(2.5), relation.I(3))
	if tt == nil || !tt.Val(1).Equal(relation.F(2.5)) {
		t.Error("AppendUnchecked should append without validation")
	}
}

func containsAny(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if found {
			return true
		}
	}
	return false
}

// TestIndexProbeAllocs is the allocation-regression guard for the index
// probe hot paths: word probes and boxed probes of interned values must
// not allocate.
func TestIndexProbeAllocs(t *testing.T) {
	db := relation.MustDatabase(
		relation.MustSchema("R", "id",
			relation.Attribute{Name: "id", Type: relation.TypeString},
			relation.Attribute{Name: "cat", Type: relation.TypeString},
		),
	)
	d := relation.NewDataset(db)
	for i := 0; i < 1000; i++ {
		d.MustAppend("R", relation.S(fmt.Sprintf("id%d", i)), relation.S(fmt.Sprintf("cat%d", i%10)))
	}
	rel := d.Relations[0]
	ix := relation.BuildIndex(0, rel, 1)
	probe := relation.S("cat3")
	tt := rel.Tuples[3]
	var sink []relation.TID
	if avg := testing.AllocsPerRun(200, func() { sink = ix.Lookup(probe) }); avg != 0 {
		t.Errorf("Index.Lookup allocates %.1f per probe, want 0", avg)
	}
	w := tt.Word(1)
	if avg := testing.AllocsPerRun(200, func() { sink = ix.LookupWord(w) }); avg != 0 {
		t.Errorf("Index.LookupWord allocates %.1f per probe, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { sink = ix.LookupWord(rel.Word(tt.GID, 1)) }); avg != 0 {
		t.Errorf("Index.LookupWord by GID allocates %.1f per probe, want 0", avg)
	}
	_ = sink
}
