package chase_test

import (
	"fmt"
	"reflect"
	"testing"

	"dcer/internal/chase"
	"dcer/internal/datagen"
	"dcer/internal/hypart"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

// simRules are rules whose only join between two of their variables is a
// static ML predicate — the shape the similarity join serves — over the
// schema of datagen.RandomInstance: once over a low-cardinality attribute
// (y draws from three values, so every value has many tuples; token
// Jaccard, so that a later "u v" is a new value the old ones accept), once
// over a unique one (the keys "P0".."P15", which Jaro-Winkler pairs up as
// "P1" ~ "P12"), collective like TFACC's fa, and once across two relations
// and two different attributes, which takes one join per side instead of
// the shared symmetric one. Rule as has nothing but the ML predicate
// between its variables and a different filter on either: whichever of a
// pair's tuples seeds an enumeration, the other is reached through the join.
const simRules = `
lo: P(a) ^ P(b) ^ Q(c) ^ Q(e) ^ a.ref = c.qk ^ b.ref = e.qk ^ c.id = e.id ^ jaccard05(a.y, b.y) -> a.id = b.id
as: P(a) ^ P(b) ^ jaccard05(a.y, b.y) ^ a.x = a.y ^ b.x = b.ref -> a.id = b.id
un: Q(a) ^ Q(b) ^ jaro085(a.qk, b.qk) ^ a.x = "u" ^ a.y = "v" -> a.id = b.id
xr: R(a) ^ Q(b) ^ R(c) ^ jaro085(a.rk, b.ref) ^ b.y = c.y ^ c.x = "w" -> a.id = c.id
`

// simInstance is the random instance of seed with simRules ahead of its
// own rules (which bring id and validated-ML predicates into the chase).
func simInstance(t *testing.T, seed int64) (*relation.Dataset, []*rule.Rule) {
	t.Helper()
	d, rules, err := datagen.RandomInstance(seed)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := rule.ParseResolved(simRules, d.DB)
	if err != nil {
		t.Fatal(err)
	}
	return d, append(sim, rules...)
}

// simAccess sums what the "sim" access path of e's plans reports.
func simAccess(e *chase.Engine) (probes, scored, satisfied int64) {
	for _, r := range e.PlanReport().Rules {
		for _, v := range r.Vars {
			for _, a := range v.Access {
				if a.Path == "sim" {
					probes += a.Probes
					scored += a.Scored
				}
			}
			for _, p := range v.Preds {
				satisfied += p.Satisfied
			}
		}
	}
	return
}

// TestSimJoinEqualsScan: Γ's fact sequence through the similarity join is
// the interpreter's, which scans, with and without shared indexes (the
// pool's goroutines probe one memo; CI runs this under the race detector)
// — and the join did fire, while the oracle never took it.
func TestSimJoinEqualsScan(t *testing.T) {
	reg := mlpred.DefaultRegistry()
	seeds := int64(24)
	if testing.Short() {
		seeds = 8
	}
	modes := []engineMode{modeDefault, modeNoMQO}
	var probes, scored int64
	for seed := int64(500); seed < 500+seeds; seed++ {
		d, rules := simInstance(t, seed)
		for _, m := range modes {
			oracle := m.with("interpreter", interpreted).engine(t, d, rules, reg)
			want := oracle.Run()
			eng := m.engine(t, d, rules, reg)
			if got := eng.Run(); !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d mode %s: Γ differs between the scan and the similarity join\nrules:\n%s", seed, m, rulesOf(rules))
			}
			if p, _, _ := simAccess(oracle); p != 0 {
				t.Fatalf("seed %d mode %s: the interpreter took the similarity join %d times", seed, m, p)
			}
			p, s, sat := simAccess(eng)
			if p == 0 && sat != 0 {
				t.Fatalf("seed %d mode %s: %d candidates satisfied by construction without a probe", seed, m, sat)
			}
			probes, scored = probes+p, scored+s
		}
	}
	if probes == 0 || scored == 0 {
		t.Fatalf("the similarity join never fired (%d probes, %d values scored)", probes, scored)
	}
}

// TestScopedFilterEqualsScopeIndexes: worker engines owning their cells
// of a HyPart partition, probing one index set over the dataset and
// cutting what they draw to their cells, deduce the fact sequence and do
// the work — valuations, extensions, plan predicate evaluations,
// classifier decisions — of the same engines probing private per-rule
// index sets. Every worker of a 3-worker partition is checked, and the
// similarity joins fire, so a join skips the values none of whose tuples
// its cells admit alike over either set.
func TestScopedFilterEqualsScopeIndexes(t *testing.T) {
	reg := mlpred.DefaultRegistry()
	seeds := int64(24)
	if testing.Short() {
		seeds = 8
	}
	var probes int64
	for seed := int64(500); seed < 500+seeds; seed++ {
		d, rules := simInstance(t, seed)
		part, err := hypart.Partition(d, rules, 3, hypart.Options{Share: true})
		if err != nil {
			t.Fatal(err)
		}
		for w := range 3 {
			cells := workerCells(part, w)
			private, err := chase.NewScoped(d, rules, cells, nil, reg, chase.Options{})
			if err != nil {
				t.Fatal(err)
			}
			shared, err := chase.NewScoped(d, rules, cells, relation.NewIndexSet(d), reg, chase.Options{ShareIndexes: true})
			if err != nil {
				t.Fatal(err)
			}
			if want, got := private.Run(), shared.Run(); !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d, worker %d: Γ differs between one shared index set and private per-rule sets", seed, w)
			}
			p, g := private.Stats(), shared.Stats()
			if p.Valuations != g.Valuations || p.Extensions != g.Extensions || p.PlanPreds != g.PlanPreds || p.MLCacheMiss != g.MLCacheMiss {
				t.Fatalf("seed %d, worker %d: valuations/extensions/plan preds/classifier decisions %d/%d/%d/%d, over private sets %d/%d/%d/%d",
					seed, w, g.Valuations, g.Extensions, g.PlanPreds, g.MLCacheMiss, p.Valuations, p.Extensions, p.PlanPreds, p.MLCacheMiss)
			}
			n, _, _ := simAccess(shared)
			probes += n
		}
	}
	if probes == 0 {
		t.Fatal("no similarity join fired in a worker engine")
	}
}

// skipRule's only join into b is a similarity join from a, which a
// constant binds first. b is hashed on its ref, which joins c's key, and
// a on a.ref, the value it probes with, so each value of a.ref lies in one
// slice of the cube and each key of Q in one other: a worker probes a
// value only from the cells holding it and scores against it only the
// keys its cells admit with it.
const skipRule = `sk: P(a) ^ Q(b) ^ R(c) ^ a.x = "u" ^ jaro085(a.ref, b.qk) ^ b.ref = c.rk -> b.id = c.id`

// TestSimJoinSkipsValuesOutsideCells: the workers of a partition, at 2, 3
// and 4 workers, take between them no more classifier decisions for
// skipRule than one engine: a worker's similarity join skips the values of
// b none of whose tuples its cell cut admits, given a's cell bits, instead
// of scoring every value of the relation once per worker. The join fires
// in the workers.
func TestSimJoinSkipsValuesOutsideCells(t *testing.T) {
	reg := mlpred.DefaultRegistry()
	var probes int64
	for seed := int64(500); seed < 516; seed++ {
		d, _, err := datagen.RandomInstance(seed)
		if err != nil {
			t.Fatal(err)
		}
		rules, err := rule.ParseResolved(skipRule, d.DB)
		if err != nil {
			t.Fatal(err)
		}
		lone := modeDefault.engine(t, d, rules, reg)
		lone.Run()
		want := lone.Stats().MLCacheMiss
		for _, n := range []int{2, 3, 4} {
			part, err := hypart.Partition(d, rules, n, hypart.Options{Share: true})
			if err != nil {
				t.Fatal(err)
			}
			var got int64
			for w := range n {
				eng, err := chase.NewScoped(d, rules, workerCells(part, w), relation.NewIndexSet(d), reg, chase.Options{ShareIndexes: true})
				if err != nil {
					t.Fatal(err)
				}
				eng.Run()
				got += eng.Stats().MLCacheMiss
				p, _, _ := simAccess(eng)
				probes += p
			}
			if got > want {
				t.Errorf("seed %d, %d workers: %d classifier decisions summed over the workers, one engine %d", seed, n, got, want)
			}
		}
	}
	if probes == 0 {
		t.Fatal("no similarity join fired in a worker engine")
	}
}

// TestSimJoinInsertEqualsRechase: a memo filled by Run stays right across
// InsertTuples. Each instance is resolved without every third tuple, then
// grown in three batches — the withheld tuples of P (they lengthen the
// postings of y and need no new value scored), the rest of the withheld
// tuples (new values of the unique keys), and three tuples of P: P90 and
// P92 share the old value "u", whose memo entry a tuple present from the
// start (P80) made Run fill, and rule as pairs them with each other and
// P90 with nothing else, so a posting of "u" that did not follow the insert
// leaves P90 alone; P91 carries a value never seen before, "u v", which "u"
// accepts. After each batch the classes must be those of a fresh chase
// over the same dataset.
func TestSimJoinInsertEqualsRechase(t *testing.T) {
	reg := mlpred.DefaultRegistry()
	seeds := int64(16)
	if testing.Short() {
		seeds = 6
	}
	var filled int64
	for seed := int64(600); seed < 600+seeds; seed++ {
		src, rules := simInstance(t, seed)
		d := relation.NewDataset(src.DB)
		var batches [3][][]relation.Value
		for i, tt := range src.Tuples() {
			switch {
			case i%3 != 1:
				d.MustAppend(src.DB.Schemas[tt.Rel].Name, tt.Values()...)
			case tt.Rel == 0:
				batches[0] = append(batches[0], append([]relation.Value{relation.I(int64(tt.Rel))}, tt.Values()...))
			default:
				batches[1] = append(batches[1], append([]relation.Value{relation.I(int64(tt.Rel))}, tt.Values()...))
			}
		}
		d.MustAppend("P", relation.S("P80"), relation.S("u"), relation.S("u"), relation.S("Q0"))
		for i, xyr := range [][3]string{{"u", "u", "Q0"}, {"w", "u v", "Q0"}, {"zz", "u", "zz"}} {
			batches[2] = append(batches[2], []relation.Value{relation.I(0),
				relation.S(fmt.Sprintf("P9%d", i)), relation.S(xyr[0]), relation.S(xyr[1]), relation.S(xyr[2])})
		}
		eng := modeDefault.engine(t, d, rules, reg)
		eng.Run()
		_, scored, _ := simAccess(eng)
		filled += scored
		for bi, rows := range batches {
			var batch []*relation.Tuple
			for _, row := range rows {
				batch = append(batch, d.MustAppend(src.DB.Schemas[int(row[0].Num)].Name, row[1:]...))
			}
			if _, err := eng.InsertTuples(batch); err != nil {
				t.Fatal(err)
			}
			fresh := modeDefault.with("interpreter", interpreted).engine(t, d, rules, reg)
			fresh.Run()
			if got, want := canonClasses(eng.Classes()), canonClasses(fresh.Classes()); got != want {
				t.Fatalf("seed %d: after batch %d InsertTuples diverges from a re-chase\ngot:\n%s\nwant:\n%s\nrules:\n%s",
					seed, bi, got, want, rulesOf(rules))
			}
		}
	}
	if filled == 0 {
		t.Fatal("no Run filled a memo before the inserts")
	}
}

// TestCalibrationSeesEveryPair: a classifier carrying a Calibration records
// one raw score per classifier invocation, whether the similarity join and
// the deciders are available (compiled plans) or not (the interpreter):
// with a Calibration attached neither is taken.
func TestCalibrationSeesEveryPair(t *testing.T) {
	d, rules := simInstance(t, 500)
	for _, m := range []engineMode{modeDefault, modeDefault.with("interpreter", interpreted)} {
		reg := mlpred.DefaultRegistry()
		calibs := reg.EnableCalibration()
		eng := m.engine(t, d, rules, reg)
		eng.Run()
		var observed int64
		for _, c := range calibs {
			observed += c.Snapshot().Count
		}
		if inv := eng.Stats().MLCacheMiss; observed != inv || inv == 0 {
			t.Errorf("mode %s: %d classifier invocations, %d scores recorded", m, inv, observed)
		}
		if p, _, sat := simAccess(eng); p != 0 || sat != 0 {
			t.Errorf("mode %s: calibrated classifiers took the similarity join (%d probes, %d satisfied)", m, p, sat)
		}
	}
}

// TestSimJoinCountsEveryDecision: with the join, Stats.MLCacheMiss is the
// classifier decisions actually taken — each representative scored counts
// one — and it repeats run over run, every drain batch fanned out over the
// pool: which goroutine fills a memo entry must not change the count.
func TestSimJoinCountsEveryDecision(t *testing.T) {
	reg := mlpred.DefaultRegistry()
	d, rules := simInstance(t, 503)
	var first chase.Stats
	for run := 0; run < 4; run++ {
		eng := modeDefault.engine(t, d, rules, reg)
		eng.Run()
		st := eng.Stats()
		_, scored, _ := simAccess(eng)
		if scored == 0 || st.MLCacheMiss < scored {
			t.Fatalf("%d values scored by the join, %d invocations counted", scored, st.MLCacheMiss)
		}
		if run == 0 {
			first = st
		} else if st.MLCacheMiss != first.MLCacheMiss || st.Valuations != first.Valuations || st.Extensions != first.Extensions {
			t.Fatalf("run %d: invocations/valuations/extensions %d/%d/%d, first run %d/%d/%d", run,
				st.MLCacheMiss, st.Valuations, st.Extensions, first.MLCacheMiss, first.Valuations, first.Extensions)
		}
	}
}
