package chase_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"dcer"
	"dcer/internal/chase"
	"dcer/internal/datagen"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
)

// gammaDigest is a sha256 over Γ's fact *sequence*: every match in
// deduction order, then every validated prediction in deduction order.
// Lengths precede contents, so no two distinct sequences serialize alike.
func gammaDigest(g *chase.Gamma) string {
	h := sha256.New()
	num := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, fs := range [][]chase.Fact{g.Matches, g.Validated} {
		num(int64(len(fs)))
		for _, f := range fs {
			num(int64(f.Kind))
			num(int64(f.A))
			num(int64(f.B))
			num(int64(len(f.Model)))
			h.Write([]byte(f.Model))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenGammas were recorded from the engine of commit fcbfa76 (map-backed
// DepStore with the full-scan, sort-the-survivors Fire), before the packed
// watched-literal store replaced it. Key: dataset/mode. "conc" was
// recorded with every drain batch fanned out over the pool, which is now
// the engine's only drain, so the digests do not depend on the host.
// "insert/conc" was re-recorded when InsertTuples' seed pass
// moved from the live context onto the task pool: its tasks buffer against
// one snapshot and merge in task order, so heads the live loop applied at
// once now land through the merge and the drain. Every mode was
// re-recorded again when each rule's join order was planned once,
// statically, instead of chosen per enumeration node: a rule now emits its
// valuations in its planned order, so a pool task's facts and
// dependencies reach the merge in another order. Every mode was
// re-recorded a third time when id predicates became access paths and the
// dependency store H was retired: valuations reach the drain in another
// order (a class step binds a variable that a key or a scan bound before),
// class member lists are merged in GID order instead of concatenated, and
// no dependency fires — a valuation whose literal is not yet in Γ is
// dropped and re-seeded by the fact that validates it. "tpch0.5/insert/*"
// were re-recorded once more (from 30a5cbdefd24…) when Deduce's pass and
// InsertTuples' seed pass became one seed pass: a batch's tasks now cut
// the variables ranked before the seeded one in the rule's join order for
// the empty seed pattern (not those of lower index) to old tuples, and bind the seeded
// variable from its root access in GID order (not each new tuple in batch
// order), so the pass's facts reach the merge in another order; the Run
// modes and the TFACC inserts kept their digests. No mode's class set
// moved with any of these (goldenSets, each recorded before the move that
// touched its mode).
//
// Retired keys: "seqdeduce" (sequential Deduce over the forced batched
// drain) went with the combination; "seq" and "insert/seq" went with the
// sequential engine option, whose schedule is the default one at
// GOMAXPROCS 1; "unbounded" and "unbounded/live-drain" ran the options of
// "conc" and "seqdrain" once the dependency store they sized was retired;
// "seqdrain" and "insert/live-drain" (every drain batch on the engine's
// live context, applying facts as they were found) went with the live
// drain, their sequence and class-set digests equal to "conc"'s and
// "insert/conc"'s to the last. Each retired key's class-set digest equals
// a remaining key's.
var goldenGammas = map[string]string{
	"tpch0.5/conc":         "21c813c4bb30d44f82869224a68e589dab3a33fc8fa1931fd133a962fc8cf84b",
	"tpch0.5/insert/conc":  "4ad335233a745360f1d177b66e98ff37e99d07f7d960e795fcbb0335d5f7f82c",
	"tfacc0.2/conc":        "b6f4634a37f5eb1d9b929f1e9cc80c205e2de17458e71763dcb1273882db21e4",
	"tfacc0.2/insert/conc": "0b454643da01842e87da61ec6d97a17947f657749a7f25f40792e35b06c6b7df",
}

// TestGammaGoldenDigest pins Γ's fact sequence byte for byte, for Run and
// for inserts: the order valuations reach the merge and the drain decides
// which of two heads landing in one class becomes the Γ fact, so any
// change to that order shows here even when the final classes agree.
func TestGammaGoldenDigest(t *testing.T) {
	gens := []struct {
		name string
		gen  func() *datagen.Generated
	}{
		{"tpch0.5", func() *datagen.Generated {
			return datagen.TPCH(datagen.TPCHOptions{Scale: 0.5, Dup: 0.3, Seed: 1})
		}},
		{"tfacc0.2", func() *datagen.Generated {
			return datagen.TFACC(datagen.TFACCOptions{Scale: 0.2, Dup: 0.3, Seed: 1})
		}},
	}
	check := func(key string, eng *chase.Engine) {
		t.Helper()
		g := eng.Gamma()
		got := gammaDigest(g)
		if got != goldenGammas[key] {
			t.Errorf("%s: digest %s, golden %q (%d facts)", key, got, goldenGammas[key], g.Size())
		}
		t.Logf("\t%q: %q,", key, got) // map-literal form, for re-recording
		set := classSetDigest(eng)
		if set != goldenSets[key] {
			t.Errorf("%s: class-set digest %s, golden %q", key, set, goldenSets[key])
		}
		t.Logf("\tset %q: %q,", key, set)
	}
	for _, gn := range gens {
		g := gn.gen()
		rules, err := g.Rules()
		if err != nil {
			t.Fatal(err)
		}
		eng := modeDefault.engine(t, g.D, rules, mlpred.DefaultRegistry())
		eng.Run()
		check(gn.name+"/conc", eng)
		// ΔD: the IncDeduce drain over an already resolved Γ.
		check(gn.name+"/insert/conc", insertRun(t, g, modeDefault, 4, nil, nil))
	}
}

// goldenSets pins what every key of TestGammaGoldenDigest reaches,
// whatever order its facts land in: the class set and the validated set.
// The insert modes' were recorded from commit 245983c, whose seed pass
// still ran serially on the live context; the Run modes' from commit
// 4e39fa6, before each rule's join order was planned statically.
var goldenSets = map[string]string{
	"tpch0.5/conc":         "3b498b2c7ab0b630b1cf954525c7c735a8bb42855bb52a0ef28903c230704d37",
	"tpch0.5/insert/conc":  "8d1c4b34a828941770dd7d8e159d41de3c86911bd29b82d73685cf59603b896a",
	"tfacc0.2/conc":        "fd24f380968d1afa71cec22bdaf8f4e1873e2bd867da565a93ac2d601948f408",
	"tfacc0.2/insert/conc": "ed75f7a06dc6605647ab56c5351a70df719b7b0dc88f11414426bf3256bd61ad",
}

// classSetDigest is a sha256 over the engine's canonical equivalence
// classes and its canonical validated set.
func classSetDigest(eng *chase.Engine) string {
	h := sha256.New()
	h.Write([]byte(dcer.CanonicalClasses(eng.Classes())))
	h.Write([]byte{0})
	h.Write([]byte(canonValidated(eng.Gamma().Validated)))
	return hex.EncodeToString(h.Sum(nil))
}

// insertRun resolves three quarters of g's tuples, then appends the rest
// through InsertTuples in the given number of batches. atNew, when not
// nil, sees the engine before its first deduction, and afterBatch after
// each batch.
func insertRun(t *testing.T, g *datagen.Generated, mode engineMode, batches int, atNew, afterBatch func(*chase.Engine)) *chase.Engine {
	t.Helper()
	d := relation.NewDataset(g.D.DB)
	var held []*relation.Tuple
	for i, tt := range g.D.Tuples() {
		if i%4 == 3 {
			held = append(held, tt)
			continue
		}
		d.MustAppend(g.D.DB.Schemas[tt.Rel].Name, tt.Values()...)
	}
	rules, err := g.Rules()
	if err != nil {
		t.Fatal(err)
	}
	eng := mode.engine(t, d, rules, mlpred.DefaultRegistry())
	if atNew != nil {
		atNew(eng)
	}
	eng.Run()
	size := (len(held) + batches - 1) / batches
	for lo := 0; lo < len(held); lo += size {
		hi := min(lo+size, len(held))
		var batch []*relation.Tuple
		for _, tt := range held[lo:hi] {
			batch = append(batch, d.MustAppend(g.D.DB.Schemas[tt.Rel].Name, tt.Values()...))
		}
		if _, err := eng.InsertTuples(batch); err != nil {
			t.Fatal(err)
		}
		if afterBatch != nil {
			afterBatch(eng)
		}
	}
	return eng
}
