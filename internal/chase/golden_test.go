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
// watched-literal store replaced it; "unbounded/live-drain" and
// "insert/live-drain" from commit 68ad08b with its sequential-drain option
// set. Key: dataset/mode. The modes force their drains explicitly (every
// batch fanned out, or none, on any GOMAXPROCS), so the digests do not
// depend on the host. "seqdeduce" — sequential Deduce over the forced
// batched drain — pinned a combination the engine no longer has: its one
// switch keeps the whole engine on the calling goroutine. "insert/conc" and
// "insert/live-drain" were re-recorded when InsertTuples' seed pass moved
// from the live context onto the task pool: its tasks buffer against one
// snapshot and merge in task order, so heads the live loop applied at once
// now land through the merge and the drain. Their class sets are
// goldenInsertSets', recorded before the move; "insert/seq" runs the same
// seed list on the live context and kept its digest.
var goldenGammas = map[string]string{
	"tpch0.5/seq":                   "7777befa0cb3563ae20874e877a6cac1e585c3b0142f0404280908476c515322",
	"tpch0.5/conc":                  "c27b703e37682aa78ac7066e48aa3d5bd0fd55d1ed8d9ba6bc775b9d905dd76a",
	"tpch0.5/seqdrain":              "c27b703e37682aa78ac7066e48aa3d5bd0fd55d1ed8d9ba6bc775b9d905dd76a",
	"tpch0.5/unbounded":             "c27b703e37682aa78ac7066e48aa3d5bd0fd55d1ed8d9ba6bc775b9d905dd76a",
	"tpch0.5/unbounded/live-drain":  "c27b703e37682aa78ac7066e48aa3d5bd0fd55d1ed8d9ba6bc775b9d905dd76a",
	"tpch0.5/insert/seq":            "de9de54788bc160d452918b41e49dd34cf9404eccda401cd2e5399f30521b763",
	"tpch0.5/insert/conc":           "c725c5b6cd088cdf7d6d6ee0438970808f285fb512730997fc529b84ba1265f6",
	"tpch0.5/insert/live-drain":     "c725c5b6cd088cdf7d6d6ee0438970808f285fb512730997fc529b84ba1265f6",
	"tfacc0.2/seq":                  "4a0102bcb6f3c81556ca89f32114426ef5ec4fdbeeeab3ebbd6ab3247e8d6156",
	"tfacc0.2/conc":                 "5e76416f27f036d0d0a5c6c1cea7f869920e628332f456a1a527b4ba3fef24c4",
	"tfacc0.2/seqdrain":             "5e76416f27f036d0d0a5c6c1cea7f869920e628332f456a1a527b4ba3fef24c4",
	"tfacc0.2/unbounded":            "5e76416f27f036d0d0a5c6c1cea7f869920e628332f456a1a527b4ba3fef24c4",
	"tfacc0.2/unbounded/live-drain": "5e76416f27f036d0d0a5c6c1cea7f869920e628332f456a1a527b4ba3fef24c4",
	"tfacc0.2/insert/seq":           "9c012bb13ba8369ddaf2e0fb315dc2ade262f2ca144603290c626c90a44e6ac6",
	"tfacc0.2/insert/conc":          "eac855000d6f5bdb926c4f1370d35d415dee0d3f34086be09913d82e2b9984ed",
	"tfacc0.2/insert/live-drain":    "eac855000d6f5bdb926c4f1370d35d415dee0d3f34086be09913d82e2b9984ed",
}

// TestGammaGoldenDigest pins Γ's fact sequence byte for byte in every
// Deduce/drain mode: the dependency store decides which of two fired heads
// landing in one class becomes the Γ fact, so any change to its firing
// order shows here even when the final classes agree.
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
	unbounded := chase.Options{ShareIndexes: true, MaxDeps: -1}
	modes := []engineMode{
		modeSeq,
		modeBatched.as("conc"),
		modeLive.as("seqdrain"),
		{"unbounded", unbounded, modeBatched.switches},
		{"unbounded/live-drain", unbounded, modeLive.switches},
	}
	check := func(key string, g *chase.Gamma) {
		t.Helper()
		got := gammaDigest(g)
		if got != goldenGammas[key] {
			t.Errorf("%s: digest %s, golden %q (%d facts)", key, got, goldenGammas[key], g.Size())
		}
		t.Logf("\t%q: %q,", key, got) // map-literal form, for re-recording
	}
	for _, gn := range gens {
		g := gn.gen()
		rules, err := g.Rules()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range modes {
			check(gn.name+"/"+m.name, m.engine(t, g.D, rules, mlpred.DefaultRegistry()).Run())
		}
		// ΔD: the IncDeduce drain with H already populated.
		for _, m := range []engineMode{modes[0], modes[1], modeLive.as("live-drain")} {
			key := gn.name + "/insert/" + m.name
			eng := insertRun(t, g, m, 4, nil)
			check(key, eng.Gamma())
			if got := classSetDigest(eng); got != goldenInsertSets[key] {
				t.Errorf("%s: class-set digest %s, golden %q", key, got, goldenInsertSets[key])
			}
		}
	}
}

// goldenInsertSets pins what each insert mode of TestGammaGoldenDigest
// reaches, whatever order its facts land in: the class set and the
// validated set, recorded from commit 245983c, whose seed pass still ran
// serially on the live context.
var goldenInsertSets = map[string]string{
	"tpch0.5/insert/seq":         "8d1c4b34a828941770dd7d8e159d41de3c86911bd29b82d73685cf59603b896a",
	"tpch0.5/insert/conc":        "8d1c4b34a828941770dd7d8e159d41de3c86911bd29b82d73685cf59603b896a",
	"tpch0.5/insert/live-drain":  "8d1c4b34a828941770dd7d8e159d41de3c86911bd29b82d73685cf59603b896a",
	"tfacc0.2/insert/seq":        "ed75f7a06dc6605647ab56c5351a70df719b7b0dc88f11414426bf3256bd61ad",
	"tfacc0.2/insert/conc":       "ed75f7a06dc6605647ab56c5351a70df719b7b0dc88f11414426bf3256bd61ad",
	"tfacc0.2/insert/live-drain": "ed75f7a06dc6605647ab56c5351a70df719b7b0dc88f11414426bf3256bd61ad",
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
// nil, sees the engine before its first deduction.
func insertRun(t *testing.T, g *datagen.Generated, mode engineMode, batches int, atNew func(*chase.Engine)) *chase.Engine {
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
	}
	return eng
}
