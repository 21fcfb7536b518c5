package chase_test

import (
	"fmt"
	"testing"

	"dcer/internal/complexity"
	"dcer/internal/datagen"
	"dcer/internal/mlpred"
	"dcer/internal/provenance"
	"dcer/internal/relation"
)

// TestProofReplaysUnderBatchedDrain is the justification oracle of the
// drain fan-out: with every drain batch forced through buffered chunks —
// whose facts and justifications (ctx.facts / ctx.justs) are merged in
// chunk order afterwards — each pair the brute-force
// NaiveChase matches gets a proof from the log that complexity.VerifyProof,
// the independent verifier of Theorem 2(1), accepts, and every other pair
// gets ErrNotEntailed. provenance's TestProofReplaysAgainstVerifier checks
// the same for the default engine, but cannot reach the
// switch that makes small batches (and a one-processor host) fan out.
func TestProofReplaysUnderBatchedDrain(t *testing.T) {
	reg := mlpred.DefaultRegistry()
	seeds := int64(20)
	if testing.Short() {
		seeds = 6
	}
	modes := []engineMode{modeBatched}
	for seed := int64(0); seed < seeds; seed++ {
		d, rules, err := datagen.RandomInstance(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		naive, err := complexity.NaiveChase(d, rules, reg)
		if err != nil {
			t.Fatalf("seed %d: naive: %v", seed, err)
		}
		for _, m := range modes {
			log := provenance.NewLog(0)
			m.opts.Provenance = log
			eng := m.engine(t, d, rules, reg)
			eng.Run()
			tag := fmt.Sprintf("seed %d mode %s", seed, m)
			if !log.Complete() {
				t.Fatalf("%s: log dropped %d entries", tag, log.Dropped())
			}
			for i := 0; i < d.Size(); i++ {
				for j := i + 1; j < d.Size(); j++ {
					a, b := relation.TID(i), relation.TID(j)
					proof, err := eng.Proof(a, b)
					if !naive.Same(a, b) {
						if err != provenance.ErrNotEntailed {
							t.Fatalf("%s: unmatched (%d,%d): err = %v, want ErrNotEntailed", tag, a, b, err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s: matched (%d,%d) has no proof: %v", tag, a, b, err)
					}
					var facts []complexity.Fact
					for _, en := range proof {
						switch {
						case en.Origin == provenance.OriginIDDup:
							continue // the verifier pre-merges id-value duplicates from D
						case en.Origin == provenance.OriginExternal, en.Rule == "":
							t.Fatalf("%s: proof of (%d,%d) has an underived step: %+v", tag, a, b, en)
						}
						facts = append(facts, complexity.Fact{
							IsMatch:   en.Fact.Kind == provenance.KindMatch,
							A:         en.Fact.A,
							B:         en.Fact.B,
							Model:     en.Fact.Model,
							Rule:      en.Rule,
							Valuation: en.Valuation,
						})
					}
					ok, err := complexity.VerifyProof(d, rules, reg, facts, [2]relation.TID{a, b})
					if err != nil || !ok {
						t.Fatalf("%s: proof of (%d,%d) does not verify (ok=%v, err=%v)\nproof: %+v", tag, a, b, ok, err, proof)
					}
				}
			}
		}
	}
}
