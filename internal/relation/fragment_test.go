package relation_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dcer/internal/baselines"
	"dcer/internal/complexity"
	"dcer/internal/datagen"
	"dcer/internal/discovery"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
	"dcer/internal/soft"
)

// checkView holds view v, a fragment of root d, to a brute-force filter
// of d by member: Has, Tuple, Size, IDSpace, every relation's scan list,
// Tuples, and RelOf and every word of each hosted tuple.
func checkView(t *testing.T, name string, d, v *relation.Dataset, member func(relation.TID) bool) {
	t.Helper()
	space := d.IDSpace()
	if v.IDSpace() != space {
		t.Fatalf("%s: IDSpace %d, root's %d", name, v.IDSpace(), space)
	}
	var tuples []*relation.Tuple
	for id := relation.TID(-2); int(id) < space+2; id++ {
		in := int(id) >= 0 && int(id) < space && member(id)
		want := (*relation.Tuple)(nil)
		if in {
			want = d.Tuple(id)
			tuples = append(tuples, want)
		}
		if v.Has(id) != in || v.Tuple(id) != want {
			t.Fatalf("%s: id %d: Has %v, Tuple %v; want %v, %v", name, id, v.Has(id), v.Tuple(id), in, want)
		}
	}
	if v.Size() != len(tuples) {
		t.Fatalf("%s: Size %d, want %d", name, v.Size(), len(tuples))
	}
	if got := v.Tuples(); !slices.Equal(got, tuples) {
		t.Fatalf("%s: Tuples lists %d tuples, want %d (or another order)", name, len(got), len(tuples))
	}
	for ri, r := range d.Relations {
		var want []relation.TID
		for _, id := range r.TIDs() {
			if member(id) {
				want = append(want, id)
			}
		}
		vr := v.Relations[ri]
		if !slices.Equal(vr.TIDs(), want) {
			t.Fatalf("%s: relation %s lists %d GIDs, want %d (or another order)", name, r.Schema.Name, len(vr.TIDs()), len(want))
		}
		for _, id := range want {
			if v.RelOf(id) != ri {
				t.Fatalf("%s: RelOf(%d) = %d, want %d", name, id, v.RelOf(id), ri)
			}
			for a := range r.Schema.Attrs {
				if vr.Word(id, a) != r.Word(id, a) {
					t.Fatalf("%s: tuple %d attr %d: word %d, root's %d", name, id, a, vr.Word(id, a), r.Word(id, a))
				}
			}
		}
	}
}

// TestFragmentMatchesRootFilter is the fragment-vs-root oracle: on TPCH
// 0.2, id sets dense and sparse (on both sides of 16 ids of id space per
// hosted tuple), with ids out of range, each handed to Fragment sorted,
// shuffled and with repeats, give a view that agrees with a brute-force
// filter of the root; so does a fragment of each fragment.
func TestFragmentMatchesRootFilter(t *testing.T) {
	d := datagen.TPCH(datagen.TPCHOptions{Scale: 0.2, Dup: 0.3, Seed: 1}).D
	space := d.IDSpace()
	rng := rand.New(rand.NewSource(7))
	stride := func(k, off int) []relation.TID {
		var ids []relation.TID
		for id := off; id < space; id += k {
			ids = append(ids, relation.TID(id))
		}
		return ids
	}
	random := func(n int) []relation.TID {
		ids := make([]relation.TID, n)
		for i := range ids {
			ids[i] = relation.TID(rng.Intn(space))
		}
		slices.Sort(ids)
		return slices.Compact(ids)
	}
	sets := map[string][]relation.TID{
		"every 2nd":  stride(2, 0),
		"every 15th": stride(15, 3),
		"every 37th": stride(37, 1),
		"random 1%":  random(space / 100),
		"all":        stride(1, 0),
		"none":       nil,
	}
	for name, ids := range sets {
		member := make(map[relation.TID]bool, len(ids))
		for _, id := range ids {
			member[id] = true
		}
		in := func(id relation.TID) bool { return member[id] }
		shuffled := append(slices.Clone(ids), ids[:len(ids)/5]...)
		shuffled = append(shuffled, -1, relation.TID(space), relation.TID(space+100))
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		repeated := append(slices.Clone(ids), ids...)
		slices.Sort(repeated)
		for form, given := range map[string][]relation.TID{"sorted": ids, "shuffled": shuffled, "repeated": repeated} {
			f := d.Fragment(given)
			checkView(t, name+", "+form, d, f, in)
			sub := random(space / 20)
			sub = append(sub, stride(3, 0)...)
			subIn := make(map[relation.TID]bool, len(sub))
			for _, id := range sub {
				subIn[id] = true
			}
			checkView(t, name+", "+form+", fragment of it", d, f.Fragment(sub), func(id relation.TID) bool { return member[id] && subIn[id] })
		}
	}
}

// TestFragmentLayout: a fragment is a view. Its relations carry no
// tuple handles, and it owns 4 bytes per hosted tuple (its scan lists)
// plus one bit per GID of the id space (its membership), give or take
// the bitset's last word.
func TestFragmentLayout(t *testing.T) {
	d := datagen.TPCH(datagen.TPCHOptions{Scale: 0.2, Dup: 0.3, Seed: 1}).D
	for _, k := range []int{1, 2, 37} {
		var ids []relation.TID
		for id := 0; id < d.IDSpace(); id += k {
			ids = append(ids, relation.TID(id))
		}
		f := d.Fragment(ids)
		for _, r := range f.Relations {
			if r.Tuples != nil {
				t.Errorf("every %dth id: relation %s of a fragment lists %d tuple handles", k, r.Schema.Name, len(r.Tuples))
			}
		}
		if limit := int64(4*f.Size() + d.IDSpace()/8 + 64); f.MemBytes() > limit {
			t.Errorf("every %dth id: fragment of %d tuples over %d GIDs owns %d bytes, more than %d", k, f.Size(), d.IDSpace(), f.MemBytes(), limit)
		}
	}
}

// TestFragmentRefusesRows: a fragment's GIDs are its root's, so every
// call that adds rows refuses one before it touches anything. Append and
// LoadCSVInto return an error, AppendUnchecked, MustAppend and Reserve
// panic, and after each the root's sizes, row table, words and storage
// are what they were; the root's own next Append then reads back what it
// was given, through its handle and by GID.
func TestFragmentRefusesRows(t *testing.T) {
	d := testDataset(t)
	f := d.Fragment([]relation.TID{2, 3})
	type state struct {
		size, space int
		mem         int64
		rows        string
	}
	snap := func() state {
		var b strings.Builder
		for id := range relation.TID(d.IDSpace()) {
			r := d.Relations[d.RelOf(id)]
			fmt.Fprintf(&b, "%d:%d:%d:%d:%d;", id, d.RelOf(id), d.Rows()[id], r.Word(id, 0), r.Word(id, 1))
		}
		return state{d.Size(), d.IDSpace(), d.MemBytes(), b.String()}
	}
	before := snap()
	// refused runs one call on the fragment; panics says whether it
	// refuses by panicking or by returning an error.
	refused := func(call string, panics bool, do func() error) {
		t.Helper()
		var err error
		panicked := true
		func() {
			defer func() { recover() }()
			err = do()
			panicked = false
		}()
		if panicked != panics || !panicked && err == nil {
			t.Errorf("%s on a fragment: panicked %v, error %v; want a refusal by panic %v", call, panicked, err, panics)
		}
		if after := snap(); after != before {
			t.Errorf("%s on a fragment changed its root: %+v, was %+v", call, after, before)
		}
	}
	refused("Append", false, func() error {
		_, err := f.Append("R", relation.S("x"), relation.I(7))
		return err
	})
	refused("LoadCSVInto", false, func() error {
		return relation.LoadCSVInto(f, "R", strings.NewReader("k:string!id,v:int\nx,7\n"))
	})
	refused("AppendUnchecked", true, func() error { f.AppendUnchecked(0, relation.S("x"), relation.I(7)); return nil })
	refused("MustAppend", true, func() error { f.MustAppend("R", relation.S("x"), relation.I(7)); return nil })
	refused("Reserve", true, func() error { f.Reserve("R", 10); return nil })
	if f.Size() != 2 || f.Has(5) {
		t.Errorf("refused calls changed the fragment: Size %d, Has(5) %v", f.Size(), f.Has(5))
	}
	tt := d.MustAppend("R", relation.S("y"), relation.I(9))
	if tt.GID != 5 || !tt.Val(0).Equal(relation.S("y")) || !d.Relations[0].Val(tt.GID, 0).Equal(relation.S("y")) {
		t.Errorf("root's next Append: GID %d, handle reads %v, by GID %v; want 5, y, y", tt.GID, tt.Val(0), d.Relations[0].Val(tt.GID, 0))
	}
}

// TestSaveDirFragment: SaveDir of a fragment writes the tuples it hosts,
// in GID order, and LoadDir reads them back value for value.
func TestSaveDirFragment(t *testing.T) {
	d := datagen.TPCH(datagen.TPCHOptions{Scale: 0.05, Dup: 0.3, Seed: 1}).D
	var ids []relation.TID
	for id := 1; id < d.IDSpace(); id += 3 {
		ids = append(ids, relation.TID(id))
	}
	f := d.Fragment(ids)
	dir := t.TempDir()
	if err := relation.SaveDir(f, dir); err != nil {
		t.Fatal(err)
	}
	back, err := relation.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != f.Size() {
		t.Fatalf("LoadDir of a saved fragment: %d tuples, want %d", back.Size(), f.Size())
	}
	for _, r := range f.Relations {
		br := back.Relation(r.Schema.Name)
		if len(br.Tuples) != len(r.TIDs()) {
			t.Fatalf("%s: %d rows back, want %d", r.Schema.Name, len(br.Tuples), len(r.TIDs()))
		}
		for row, id := range r.TIDs() {
			for a := range r.Schema.Attrs {
				if got, want := br.Tuples[row].Val(a), r.Val(id, a); !got.Equal(want) {
					t.Fatalf("%s row %d attr %d: %v back, want %v", r.Schema.Name, row, a, got, want)
				}
			}
		}
	}
}

// TestReadersOnFragment runs every reader of a dataset outside the engine
// that once walked Relation.Tuples, which a fragment leaves nil, over a
// root and over the fragment of all its GIDs: each must answer alike, as
// it does when it lists a relation's tuples through TuplesOf (the scan
// list) instead.
func TestReadersOnFragment(t *testing.T) {
	paper, l := datagen.PaperExample()
	paperRules, err := datagen.PaperRules(paper.DB)
	if err != nil {
		t.Fatal(err)
	}
	var softRules []soft.Rule
	for _, r := range paperRules {
		if r.Head.Kind == rule.PredID {
			softRules = append(softRules, soft.Rule{Rule: r, Confidence: 0.9})
		}
	}
	imdb := datagen.IMDBLike(200, 0.25, 11)
	var pairs []discovery.LabeledPair
	var train []baselines.TrainingPair
	for _, p := range imdb.LabeledPairs {
		pairs = append(pairs, discovery.LabeledPair{A: p.A, B: p.B, Match: p.Match})
		train = append(train, baselines.TrainingPair{A: p.A, B: p.B, Match: p.Match})
	}
	reg := mlpred.DefaultRegistry()
	whole := func(d *relation.Dataset) *relation.Dataset {
		ids := make([]relation.TID, d.IDSpace())
		for i := range ids {
			ids[i] = relation.TID(i)
		}
		return d.Fragment(ids)
	}
	readers := []struct {
		name string
		root *relation.Dataset
		run  func(d *relation.Dataset) (string, error)
	}{
		{"complexity.NaiveChase", paper, func(d *relation.Dataset) (string, error) {
			res, err := complexity.NaiveChase(d, paperRules, reg)
			if err != nil {
				return "", err
			}
			classes := res.Classes() // in map order
			slices.SortFunc(classes, func(a, b []relation.TID) int { return int(a[0] - b[0]) })
			return fmt.Sprint(classes, len(res.Facts)), nil
		}},
		{"complexity.VerifyProof", paper, func(d *relation.Dataset) (string, error) {
			res, err := complexity.NaiveChase(paper, paperRules, reg)
			if err != nil {
				return "", err
			}
			target := [2]relation.TID{l["t1"].GID, l["t3"].GID}
			ok, err := complexity.VerifyProof(d, paperRules, reg, complexity.ProofOf(res, target), target)
			return fmt.Sprint(ok), err
		}},
		{"soft.Chase", paper, func(d *relation.Dataset) (string, error) {
			res, err := soft.Chase(d, softRules, reg, 0)
			if err != nil {
				return "", err
			}
			return fmt.Sprint(res.Matches(0.5)), nil
		}},
		{"discovery.Mine", imdb.D, func(d *relation.Dataset) (string, error) {
			mined, err := discovery.Mine(d, pairs, reg, discovery.Options{Relation: "movie", MaxRules: 3})
			var texts []string
			for _, m := range mined {
				texts = append(texts, m.Text)
			}
			return strings.Join(texts, "\n"), err
		}},
	}
	model := baselines.TrainPairModel(imdb.D, train, 5, 0.5, 1e-4, 1)
	for _, m := range []baselines.Matcher{
		&baselines.ERBloxLike{Model: model}, &baselines.JedAILike{}, &baselines.DedoopLike{},
		&baselines.DisDedupLike{}, &baselines.SparkERLike{}, &baselines.Windowing{}, baselines.DittoLike(0.8),
	} {
		readers = append(readers, struct {
			name string
			root *relation.Dataset
			run  func(d *relation.Dataset) (string, error)
		}{"baselines." + m.Name(), imdb.D, func(d *relation.Dataset) (string, error) { return fmt.Sprint(m.Match(d)), nil }})
	}
	for _, rd := range readers {
		want, err := rd.run(rd.root)
		if err != nil {
			t.Fatalf("%s on the root: %v", rd.name, err)
		}
		got, err := rd.run(whole(rd.root))
		if err != nil {
			t.Fatalf("%s on the whole fragment: %v", rd.name, err)
		}
		if got != want {
			t.Errorf("%s: the whole fragment answers %.200q, the root %.200q", rd.name, got, want)
		}
		if want == "" || want == "[]" || want == "false" {
			t.Errorf("%s: the root's answer %q is empty, so the comparison shows nothing", rd.name, want)
		}
	}
}
